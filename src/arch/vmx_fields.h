// Intel VT-x VMCS field model.
//
// Field encodings follow the Intel SDM Vol. 3 Appendix B layout (the same
// constants Linux carries in arch/x86/include/asm/vmx.h). The table also
// records, per field, the *semantic* bit width used when flattening a VMCS
// into the bit image that the paper's Section 5.3.2 measures Hamming
// distances over ("an 8,000-bit VM state across 165 fields with predefined
// widths").
#ifndef SRC_ARCH_VMX_FIELDS_H_
#define SRC_ARCH_VMX_FIELDS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/arch/bit_image.h"

namespace neco {

// VMCS field encodings (Intel SDM Vol. 3, Appendix B).
enum class VmcsField : uint32_t {
  // 16-bit control fields.
  kVirtualProcessorId = 0x0000,
  kPostedIntrNotificationVector = 0x0002,
  kEptpIndex = 0x0004,
  // 16-bit guest-state fields.
  kGuestEsSelector = 0x0800,
  kGuestCsSelector = 0x0802,
  kGuestSsSelector = 0x0804,
  kGuestDsSelector = 0x0806,
  kGuestFsSelector = 0x0808,
  kGuestGsSelector = 0x080a,
  kGuestLdtrSelector = 0x080c,
  kGuestTrSelector = 0x080e,
  kGuestIntrStatus = 0x0810,
  kGuestPmlIndex = 0x0812,
  // 16-bit host-state fields.
  kHostEsSelector = 0x0c00,
  kHostCsSelector = 0x0c02,
  kHostSsSelector = 0x0c04,
  kHostDsSelector = 0x0c06,
  kHostFsSelector = 0x0c08,
  kHostGsSelector = 0x0c0a,
  kHostTrSelector = 0x0c0c,
  // 64-bit control fields.
  kIoBitmapA = 0x2000,
  kIoBitmapB = 0x2002,
  kMsrBitmap = 0x2004,
  kVmExitMsrStoreAddr = 0x2006,
  kVmExitMsrLoadAddr = 0x2008,
  kVmEntryMsrLoadAddr = 0x200a,
  kExecutiveVmcsPointer = 0x200c,
  kPmlAddress = 0x200e,
  kTscOffset = 0x2010,
  kVirtualApicPageAddr = 0x2012,
  kApicAccessAddr = 0x2014,
  kPostedIntrDescAddr = 0x2016,
  kVmFunctionControl = 0x2018,
  kEptPointer = 0x201a,
  kEoiExitBitmap0 = 0x201c,
  kEoiExitBitmap1 = 0x201e,
  kEoiExitBitmap2 = 0x2020,
  kEoiExitBitmap3 = 0x2022,
  kEptpListAddress = 0x2024,
  kVmreadBitmap = 0x2026,
  kVmwriteBitmap = 0x2028,
  kVirtExceptionInfoAddr = 0x202a,
  kXssExitBitmap = 0x202c,
  kEnclsExitingBitmap = 0x202e,
  kSppTablePointer = 0x2030,
  kTscMultiplier = 0x2032,
  kTertiaryVmExecControl = 0x2034,
  // 64-bit read-only data field.
  kGuestPhysicalAddress = 0x2400,
  // 64-bit guest-state fields.
  kVmcsLinkPointer = 0x2800,
  kGuestIa32Debugctl = 0x2802,
  kGuestIa32Pat = 0x2804,
  kGuestIa32Efer = 0x2806,
  kGuestIa32PerfGlobalCtrl = 0x2808,
  kGuestPdptr0 = 0x280a,
  kGuestPdptr1 = 0x280c,
  kGuestPdptr2 = 0x280e,
  kGuestPdptr3 = 0x2810,
  kGuestIa32Bndcfgs = 0x2812,
  kGuestIa32RtitCtl = 0x2814,
  kGuestIa32LbrCtl = 0x2816,
  // 64-bit host-state fields.
  kHostIa32Pat = 0x2c00,
  kHostIa32Efer = 0x2c02,
  kHostIa32PerfGlobalCtrl = 0x2c04,
  // 32-bit control fields.
  kPinBasedVmExecControl = 0x4000,
  kCpuBasedVmExecControl = 0x4002,
  kExceptionBitmap = 0x4004,
  kPageFaultErrorCodeMask = 0x4006,
  kPageFaultErrorCodeMatch = 0x4008,
  kCr3TargetCount = 0x400a,
  kVmExitControls = 0x400c,
  kVmExitMsrStoreCount = 0x400e,
  kVmExitMsrLoadCount = 0x4010,
  kVmEntryControls = 0x4012,
  kVmEntryMsrLoadCount = 0x4014,
  kVmEntryIntrInfoField = 0x4016,
  kVmEntryExceptionErrorCode = 0x4018,
  kVmEntryInstructionLen = 0x401a,
  kTprThreshold = 0x401c,
  kSecondaryVmExecControl = 0x401e,
  kPleGap = 0x4020,
  kPleWindow = 0x4022,
  // 32-bit read-only data fields.
  kVmInstructionError = 0x4400,
  kVmExitReason = 0x4402,
  kVmExitIntrInfo = 0x4404,
  kVmExitIntrErrorCode = 0x4406,
  kIdtVectoringInfoField = 0x4408,
  kIdtVectoringErrorCode = 0x440a,
  kVmExitInstructionLen = 0x440c,
  kVmxInstructionInfo = 0x440e,
  // 32-bit guest-state fields.
  kGuestEsLimit = 0x4800,
  kGuestCsLimit = 0x4802,
  kGuestSsLimit = 0x4804,
  kGuestDsLimit = 0x4806,
  kGuestFsLimit = 0x4808,
  kGuestGsLimit = 0x480a,
  kGuestLdtrLimit = 0x480c,
  kGuestTrLimit = 0x480e,
  kGuestGdtrLimit = 0x4810,
  kGuestIdtrLimit = 0x4812,
  kGuestEsArBytes = 0x4814,
  kGuestCsArBytes = 0x4816,
  kGuestSsArBytes = 0x4818,
  kGuestDsArBytes = 0x481a,
  kGuestFsArBytes = 0x481c,
  kGuestGsArBytes = 0x481e,
  kGuestLdtrArBytes = 0x4820,
  kGuestTrArBytes = 0x4822,
  kGuestInterruptibilityInfo = 0x4824,
  kGuestActivityState = 0x4826,
  kGuestSmbase = 0x4828,
  kGuestSysenterCs = 0x482a,
  kVmxPreemptionTimerValue = 0x482e,
  // 32-bit host-state field.
  kHostIa32SysenterCs = 0x4c00,
  // Natural-width control fields.
  kCr0GuestHostMask = 0x6000,
  kCr4GuestHostMask = 0x6002,
  kCr0ReadShadow = 0x6004,
  kCr4ReadShadow = 0x6006,
  kCr3TargetValue0 = 0x6008,
  kCr3TargetValue1 = 0x600a,
  kCr3TargetValue2 = 0x600c,
  kCr3TargetValue3 = 0x600e,
  // Natural-width read-only data fields.
  kExitQualification = 0x6400,
  kIoRcx = 0x6402,
  kIoRsi = 0x6404,
  kIoRdi = 0x6406,
  kIoRip = 0x6408,
  kGuestLinearAddress = 0x640a,
  // Natural-width guest-state fields.
  kGuestCr0 = 0x6800,
  kGuestCr3 = 0x6802,
  kGuestCr4 = 0x6804,
  kGuestEsBase = 0x6806,
  kGuestCsBase = 0x6808,
  kGuestSsBase = 0x680a,
  kGuestDsBase = 0x680c,
  kGuestFsBase = 0x680e,
  kGuestGsBase = 0x6810,
  kGuestLdtrBase = 0x6812,
  kGuestTrBase = 0x6814,
  kGuestGdtrBase = 0x6816,
  kGuestIdtrBase = 0x6818,
  kGuestDr7 = 0x681a,
  kGuestRsp = 0x681c,
  kGuestRip = 0x681e,
  kGuestRflags = 0x6820,
  kGuestPendingDbgExceptions = 0x6822,
  kGuestSysenterEsp = 0x6824,
  kGuestSysenterEip = 0x6826,
  kGuestSCet = 0x6828,
  kGuestSsp = 0x682a,
  kGuestIntrSspTable = 0x682c,
  // Natural-width host-state fields.
  kHostCr0 = 0x6c00,
  kHostCr3 = 0x6c02,
  kHostCr4 = 0x6c04,
  kHostFsBase = 0x6c06,
  kHostGsBase = 0x6c08,
  kHostTrBase = 0x6c0a,
  kHostGdtrBase = 0x6c0c,
  kHostIdtrBase = 0x6c0e,
  kHostIa32SysenterEsp = 0x6c10,
  kHostIa32SysenterEip = 0x6c12,
  kHostRsp = 0x6c14,
  kHostRip = 0x6c16,
  kHostSCet = 0x6c18,
  kHostSsp = 0x6c1a,
  kHostIntrSspTable = 0x6c1c,
};

// VMCS field groups. Rounding proceeds control -> host -> guest
// (Section 4.3 of the paper); read-only fields are never inputs to
// VM entry and are excluded from mutation.
enum class VmcsFieldGroup : uint8_t {
  kControl,
  kGuestState,
  kHostState,
  kReadOnlyData,
};

// Architectural access width class (SDM encoding bits 14:13).
enum class VmcsFieldWidth : uint8_t {
  k16 = 0,
  k64 = 1,
  k32 = 2,
  kNatural = 3,
};

struct VmcsFieldInfo {
  VmcsField field;
  std::string_view name;
  VmcsFieldGroup group;
  VmcsFieldWidth width_class;
  // Semantic bit width used for the flattened bit image and for bounding
  // bit-selection during boundary mutation.
  uint8_t bits;
};

namespace vmx_fields_detail {

// Shorthand for table construction.
inline constexpr auto kControl = VmcsFieldGroup::kControl;
inline constexpr auto kGuest = VmcsFieldGroup::kGuestState;
inline constexpr auto kHost = VmcsFieldGroup::kHostState;
inline constexpr auto kRo = VmcsFieldGroup::kReadOnlyData;
inline constexpr auto w16 = VmcsFieldWidth::k16;
inline constexpr auto w32 = VmcsFieldWidth::k32;
inline constexpr auto w64 = VmcsFieldWidth::k64;
inline constexpr auto wNat = VmcsFieldWidth::kNatural;

// The full VMCS layout: 165 fields spanning 8,000 bits, matching the state
// geometry the paper reports for its Hamming-distance analysis (Section
// 5.3.2). Natural-width fields are 64 bits on x86-64. The order is the bit
// image's field order.
inline constexpr std::array<VmcsFieldInfo, 165> kTable = {{
    // --- 16-bit control fields ---
    {VmcsField::kVirtualProcessorId, "virtual_processor_id", kControl, w16, 16},
    {VmcsField::kPostedIntrNotificationVector, "posted_intr_nv", kControl, w16, 16},
    {VmcsField::kEptpIndex, "eptp_index", kControl, w16, 16},
    // --- 16-bit guest-state fields ---
    {VmcsField::kGuestEsSelector, "guest_es_selector", kGuest, w16, 16},
    {VmcsField::kGuestCsSelector, "guest_cs_selector", kGuest, w16, 16},
    {VmcsField::kGuestSsSelector, "guest_ss_selector", kGuest, w16, 16},
    {VmcsField::kGuestDsSelector, "guest_ds_selector", kGuest, w16, 16},
    {VmcsField::kGuestFsSelector, "guest_fs_selector", kGuest, w16, 16},
    {VmcsField::kGuestGsSelector, "guest_gs_selector", kGuest, w16, 16},
    {VmcsField::kGuestLdtrSelector, "guest_ldtr_selector", kGuest, w16, 16},
    {VmcsField::kGuestTrSelector, "guest_tr_selector", kGuest, w16, 16},
    {VmcsField::kGuestIntrStatus, "guest_intr_status", kGuest, w16, 16},
    {VmcsField::kGuestPmlIndex, "guest_pml_index", kGuest, w16, 16},
    // --- 16-bit host-state fields ---
    {VmcsField::kHostEsSelector, "host_es_selector", kHost, w16, 16},
    {VmcsField::kHostCsSelector, "host_cs_selector", kHost, w16, 16},
    {VmcsField::kHostSsSelector, "host_ss_selector", kHost, w16, 16},
    {VmcsField::kHostDsSelector, "host_ds_selector", kHost, w16, 16},
    {VmcsField::kHostFsSelector, "host_fs_selector", kHost, w16, 16},
    {VmcsField::kHostGsSelector, "host_gs_selector", kHost, w16, 16},
    {VmcsField::kHostTrSelector, "host_tr_selector", kHost, w16, 16},
    // --- 64-bit control fields ---
    {VmcsField::kIoBitmapA, "io_bitmap_a", kControl, w64, 64},
    {VmcsField::kIoBitmapB, "io_bitmap_b", kControl, w64, 64},
    {VmcsField::kMsrBitmap, "msr_bitmap", kControl, w64, 64},
    {VmcsField::kVmExitMsrStoreAddr, "vm_exit_msr_store_addr", kControl, w64, 64},
    {VmcsField::kVmExitMsrLoadAddr, "vm_exit_msr_load_addr", kControl, w64, 64},
    {VmcsField::kVmEntryMsrLoadAddr, "vm_entry_msr_load_addr", kControl, w64, 64},
    {VmcsField::kExecutiveVmcsPointer, "executive_vmcs_pointer", kControl, w64, 64},
    {VmcsField::kPmlAddress, "pml_address", kControl, w64, 64},
    {VmcsField::kTscOffset, "tsc_offset", kControl, w64, 64},
    {VmcsField::kVirtualApicPageAddr, "virtual_apic_page_addr", kControl, w64, 64},
    {VmcsField::kApicAccessAddr, "apic_access_addr", kControl, w64, 64},
    {VmcsField::kPostedIntrDescAddr, "posted_intr_desc_addr", kControl, w64, 64},
    {VmcsField::kVmFunctionControl, "vm_function_control", kControl, w64, 64},
    {VmcsField::kEptPointer, "ept_pointer", kControl, w64, 64},
    {VmcsField::kEoiExitBitmap0, "eoi_exit_bitmap0", kControl, w64, 64},
    {VmcsField::kEoiExitBitmap1, "eoi_exit_bitmap1", kControl, w64, 64},
    {VmcsField::kEoiExitBitmap2, "eoi_exit_bitmap2", kControl, w64, 64},
    {VmcsField::kEoiExitBitmap3, "eoi_exit_bitmap3", kControl, w64, 64},
    {VmcsField::kEptpListAddress, "eptp_list_address", kControl, w64, 64},
    {VmcsField::kVmreadBitmap, "vmread_bitmap", kControl, w64, 64},
    {VmcsField::kVmwriteBitmap, "vmwrite_bitmap", kControl, w64, 64},
    {VmcsField::kVirtExceptionInfoAddr, "virt_exception_info_addr", kControl, w64, 64},
    {VmcsField::kXssExitBitmap, "xss_exit_bitmap", kControl, w64, 64},
    {VmcsField::kEnclsExitingBitmap, "encls_exiting_bitmap", kControl, w64, 64},
    {VmcsField::kSppTablePointer, "spp_table_pointer", kControl, w64, 64},
    {VmcsField::kTscMultiplier, "tsc_multiplier", kControl, w64, 64},
    {VmcsField::kTertiaryVmExecControl, "tertiary_vm_exec_control", kControl, w64, 64},
    // --- 64-bit read-only data field ---
    {VmcsField::kGuestPhysicalAddress, "guest_physical_address", kRo, w64, 64},
    // --- 64-bit guest-state fields ---
    {VmcsField::kVmcsLinkPointer, "vmcs_link_pointer", kGuest, w64, 64},
    {VmcsField::kGuestIa32Debugctl, "guest_ia32_debugctl", kGuest, w64, 64},
    {VmcsField::kGuestIa32Pat, "guest_ia32_pat", kGuest, w64, 64},
    {VmcsField::kGuestIa32Efer, "guest_ia32_efer", kGuest, w64, 64},
    {VmcsField::kGuestIa32PerfGlobalCtrl, "guest_ia32_perf_global_ctrl", kGuest, w64, 64},
    {VmcsField::kGuestPdptr0, "guest_pdptr0", kGuest, w64, 64},
    {VmcsField::kGuestPdptr1, "guest_pdptr1", kGuest, w64, 64},
    {VmcsField::kGuestPdptr2, "guest_pdptr2", kGuest, w64, 64},
    {VmcsField::kGuestPdptr3, "guest_pdptr3", kGuest, w64, 64},
    {VmcsField::kGuestIa32Bndcfgs, "guest_ia32_bndcfgs", kGuest, w64, 64},
    {VmcsField::kGuestIa32RtitCtl, "guest_ia32_rtit_ctl", kGuest, w64, 64},
    {VmcsField::kGuestIa32LbrCtl, "guest_ia32_lbr_ctl", kGuest, w64, 64},
    // --- 64-bit host-state fields ---
    {VmcsField::kHostIa32Pat, "host_ia32_pat", kHost, w64, 64},
    {VmcsField::kHostIa32Efer, "host_ia32_efer", kHost, w64, 64},
    {VmcsField::kHostIa32PerfGlobalCtrl, "host_ia32_perf_global_ctrl", kHost, w64, 64},
    // --- 32-bit control fields ---
    {VmcsField::kPinBasedVmExecControl, "pin_based_vm_exec_control", kControl, w32, 32},
    {VmcsField::kCpuBasedVmExecControl, "cpu_based_vm_exec_control", kControl, w32, 32},
    {VmcsField::kExceptionBitmap, "exception_bitmap", kControl, w32, 32},
    {VmcsField::kPageFaultErrorCodeMask, "page_fault_error_code_mask", kControl, w32, 32},
    {VmcsField::kPageFaultErrorCodeMatch, "page_fault_error_code_match", kControl, w32, 32},
    {VmcsField::kCr3TargetCount, "cr3_target_count", kControl, w32, 32},
    {VmcsField::kVmExitControls, "vm_exit_controls", kControl, w32, 32},
    {VmcsField::kVmExitMsrStoreCount, "vm_exit_msr_store_count", kControl, w32, 32},
    {VmcsField::kVmExitMsrLoadCount, "vm_exit_msr_load_count", kControl, w32, 32},
    {VmcsField::kVmEntryControls, "vm_entry_controls", kControl, w32, 32},
    {VmcsField::kVmEntryMsrLoadCount, "vm_entry_msr_load_count", kControl, w32, 32},
    {VmcsField::kVmEntryIntrInfoField, "vm_entry_intr_info", kControl, w32, 32},
    {VmcsField::kVmEntryExceptionErrorCode, "vm_entry_exception_error_code", kControl, w32, 32},
    {VmcsField::kVmEntryInstructionLen, "vm_entry_instruction_len", kControl, w32, 32},
    {VmcsField::kTprThreshold, "tpr_threshold", kControl, w32, 32},
    {VmcsField::kSecondaryVmExecControl, "secondary_vm_exec_control", kControl, w32, 32},
    {VmcsField::kPleGap, "ple_gap", kControl, w32, 32},
    {VmcsField::kPleWindow, "ple_window", kControl, w32, 32},
    // --- 32-bit read-only data fields ---
    {VmcsField::kVmInstructionError, "vm_instruction_error", kRo, w32, 32},
    {VmcsField::kVmExitReason, "vm_exit_reason", kRo, w32, 32},
    {VmcsField::kVmExitIntrInfo, "vm_exit_intr_info", kRo, w32, 32},
    {VmcsField::kVmExitIntrErrorCode, "vm_exit_intr_error_code", kRo, w32, 32},
    {VmcsField::kIdtVectoringInfoField, "idt_vectoring_info", kRo, w32, 32},
    {VmcsField::kIdtVectoringErrorCode, "idt_vectoring_error_code", kRo, w32, 32},
    {VmcsField::kVmExitInstructionLen, "vm_exit_instruction_len", kRo, w32, 32},
    {VmcsField::kVmxInstructionInfo, "vmx_instruction_info", kRo, w32, 32},
    // --- 32-bit guest-state fields ---
    {VmcsField::kGuestEsLimit, "guest_es_limit", kGuest, w32, 32},
    {VmcsField::kGuestCsLimit, "guest_cs_limit", kGuest, w32, 32},
    {VmcsField::kGuestSsLimit, "guest_ss_limit", kGuest, w32, 32},
    {VmcsField::kGuestDsLimit, "guest_ds_limit", kGuest, w32, 32},
    {VmcsField::kGuestFsLimit, "guest_fs_limit", kGuest, w32, 32},
    {VmcsField::kGuestGsLimit, "guest_gs_limit", kGuest, w32, 32},
    {VmcsField::kGuestLdtrLimit, "guest_ldtr_limit", kGuest, w32, 32},
    {VmcsField::kGuestTrLimit, "guest_tr_limit", kGuest, w32, 32},
    {VmcsField::kGuestGdtrLimit, "guest_gdtr_limit", kGuest, w32, 32},
    {VmcsField::kGuestIdtrLimit, "guest_idtr_limit", kGuest, w32, 32},
    {VmcsField::kGuestEsArBytes, "guest_es_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestCsArBytes, "guest_cs_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestSsArBytes, "guest_ss_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestDsArBytes, "guest_ds_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestFsArBytes, "guest_fs_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestGsArBytes, "guest_gs_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestLdtrArBytes, "guest_ldtr_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestTrArBytes, "guest_tr_ar_bytes", kGuest, w32, 32},
    {VmcsField::kGuestInterruptibilityInfo, "guest_interruptibility_info", kGuest, w32, 32},
    {VmcsField::kGuestActivityState, "guest_activity_state", kGuest, w32, 32},
    {VmcsField::kGuestSmbase, "guest_smbase", kGuest, w32, 32},
    {VmcsField::kGuestSysenterCs, "guest_sysenter_cs", kGuest, w32, 32},
    {VmcsField::kVmxPreemptionTimerValue, "vmx_preemption_timer_value", kGuest, w32, 32},
    // --- 32-bit host-state field ---
    {VmcsField::kHostIa32SysenterCs, "host_ia32_sysenter_cs", kHost, w32, 32},
    // --- Natural-width control fields ---
    {VmcsField::kCr0GuestHostMask, "cr0_guest_host_mask", kControl, wNat, 64},
    {VmcsField::kCr4GuestHostMask, "cr4_guest_host_mask", kControl, wNat, 64},
    {VmcsField::kCr0ReadShadow, "cr0_read_shadow", kControl, wNat, 64},
    {VmcsField::kCr4ReadShadow, "cr4_read_shadow", kControl, wNat, 64},
    {VmcsField::kCr3TargetValue0, "cr3_target_value0", kControl, wNat, 64},
    {VmcsField::kCr3TargetValue1, "cr3_target_value1", kControl, wNat, 64},
    {VmcsField::kCr3TargetValue2, "cr3_target_value2", kControl, wNat, 64},
    {VmcsField::kCr3TargetValue3, "cr3_target_value3", kControl, wNat, 64},
    // --- Natural-width read-only data fields ---
    {VmcsField::kExitQualification, "exit_qualification", kRo, wNat, 64},
    {VmcsField::kIoRcx, "io_rcx", kRo, wNat, 64},
    {VmcsField::kIoRsi, "io_rsi", kRo, wNat, 64},
    {VmcsField::kIoRdi, "io_rdi", kRo, wNat, 64},
    {VmcsField::kIoRip, "io_rip", kRo, wNat, 64},
    {VmcsField::kGuestLinearAddress, "guest_linear_address", kRo, wNat, 64},
    // --- Natural-width guest-state fields ---
    {VmcsField::kGuestCr0, "guest_cr0", kGuest, wNat, 64},
    {VmcsField::kGuestCr3, "guest_cr3", kGuest, wNat, 64},
    {VmcsField::kGuestCr4, "guest_cr4", kGuest, wNat, 64},
    {VmcsField::kGuestEsBase, "guest_es_base", kGuest, wNat, 64},
    {VmcsField::kGuestCsBase, "guest_cs_base", kGuest, wNat, 64},
    {VmcsField::kGuestSsBase, "guest_ss_base", kGuest, wNat, 64},
    {VmcsField::kGuestDsBase, "guest_ds_base", kGuest, wNat, 64},
    {VmcsField::kGuestFsBase, "guest_fs_base", kGuest, wNat, 64},
    {VmcsField::kGuestGsBase, "guest_gs_base", kGuest, wNat, 64},
    {VmcsField::kGuestLdtrBase, "guest_ldtr_base", kGuest, wNat, 64},
    {VmcsField::kGuestTrBase, "guest_tr_base", kGuest, wNat, 64},
    {VmcsField::kGuestGdtrBase, "guest_gdtr_base", kGuest, wNat, 64},
    {VmcsField::kGuestIdtrBase, "guest_idtr_base", kGuest, wNat, 64},
    {VmcsField::kGuestDr7, "guest_dr7", kGuest, wNat, 64},
    {VmcsField::kGuestRsp, "guest_rsp", kGuest, wNat, 64},
    {VmcsField::kGuestRip, "guest_rip", kGuest, wNat, 64},
    {VmcsField::kGuestRflags, "guest_rflags", kGuest, wNat, 64},
    {VmcsField::kGuestPendingDbgExceptions, "guest_pending_dbg_exceptions", kGuest, wNat, 64},
    {VmcsField::kGuestSysenterEsp, "guest_sysenter_esp", kGuest, wNat, 64},
    {VmcsField::kGuestSysenterEip, "guest_sysenter_eip", kGuest, wNat, 64},
    {VmcsField::kGuestSCet, "guest_s_cet", kGuest, wNat, 64},
    {VmcsField::kGuestSsp, "guest_ssp", kGuest, wNat, 64},
    {VmcsField::kGuestIntrSspTable, "guest_intr_ssp_table", kGuest, wNat, 64},
    // --- Natural-width host-state fields ---
    {VmcsField::kHostCr0, "host_cr0", kHost, wNat, 64},
    {VmcsField::kHostCr3, "host_cr3", kHost, wNat, 64},
    {VmcsField::kHostCr4, "host_cr4", kHost, wNat, 64},
    {VmcsField::kHostFsBase, "host_fs_base", kHost, wNat, 64},
    {VmcsField::kHostGsBase, "host_gs_base", kHost, wNat, 64},
    {VmcsField::kHostTrBase, "host_tr_base", kHost, wNat, 64},
    {VmcsField::kHostGdtrBase, "host_gdtr_base", kHost, wNat, 64},
    {VmcsField::kHostIdtrBase, "host_idtr_base", kHost, wNat, 64},
    {VmcsField::kHostIa32SysenterEsp, "host_ia32_sysenter_esp", kHost, wNat, 64},
    {VmcsField::kHostIa32SysenterEip, "host_ia32_sysenter_eip", kHost, wNat, 64},
    {VmcsField::kHostSCet, "host_s_cet", kHost, wNat, 64},
    {VmcsField::kHostSsp, "host_ssp", kHost, wNat, 64},
    {VmcsField::kHostIntrSspTable, "host_intr_ssp_table", kHost, wNat, 64},
    {VmcsField::kHostRsp, "host_rsp", kHost, wNat, 64},
    {VmcsField::kHostRip, "host_rip", kHost, wNat, 64},
}};

// O(1) lookup: an encoding's slot is its bits 14:10 (width class, bit 12,
// type) above its bits 6:1 (index). Every table encoding has index < 64 and
// zero bits 9:7, so the slot is unique per field (asserted below); the
// exact-match compare in VmcsFieldIndex rejects every other encoding that
// lands on an occupied slot.
inline constexpr size_t kSlotCount = size_t{1} << 11;

constexpr size_t SlotOf(uint32_t encoding) {
  return ((encoding >> 10) & 0x1f) << 6 | ((encoding >> 1) & 0x3f);
}

constexpr std::array<int16_t, kSlotCount> BuildSlots() {
  std::array<int16_t, kSlotCount> slots{};
  slots.fill(-1);
  for (size_t i = 0; i < kTable.size(); ++i) {
    slots[SlotOf(static_cast<uint32_t>(kTable[i].field))] =
        static_cast<int16_t>(i);
  }
  return slots;
}

inline constexpr std::array<int16_t, kSlotCount> kSlots = BuildSlots();

constexpr bool SlotsAreUnique() {
  for (size_t i = 0; i < kTable.size(); ++i) {
    if (kSlots[SlotOf(static_cast<uint32_t>(kTable[i].field))] !=
        static_cast<int16_t>(i)) {
      return false;
    }
  }
  return true;
}

inline constexpr size_t kTotalBits = BitImageBits(kTable);

static_assert(SlotsAreUnique(), "two VMCS fields share an index slot");
static_assert(kTotalBits == 8000, "the paper's VMCS layout spans 8000 bits");
static_assert(FieldsAreWholeBytes(kTable),
              "the bit-image codec needs whole-byte VMCS field widths");

}  // namespace vmx_fields_detail

// Full field table in bit-image order. The count and the total bit size
// are exposed so the Figure 5 bench can report the state-space geometry.
constexpr std::span<const VmcsFieldInfo> VmcsFieldTable() {
  return vmx_fields_detail::kTable;
}

// Number of fields in the table (the paper's layout has 165).
constexpr size_t VmcsFieldCount() { return vmx_fields_detail::kTable.size(); }

// Sum of semantic widths in bits (the paper's layout spans 8,000 bits).
constexpr size_t VmcsTotalBits() { return vmx_fields_detail::kTotalBits; }

// Dense index of a field within the table, or -1. Constant time; folds at
// compile time for a literal field.
constexpr int VmcsFieldIndex(VmcsField field) {
  using vmx_fields_detail::kSlots;
  using vmx_fields_detail::kTable;
  using vmx_fields_detail::SlotOf;
  const int idx = kSlots[SlotOf(static_cast<uint32_t>(field))];
  return idx >= 0 && kTable[static_cast<size_t>(idx)].field == field ? idx
                                                                     : -1;
}

// Linear-scan reference implementation of VmcsFieldIndex; the equivalence
// tests pin the slot table against it over every 16-bit encoding.
int VmcsFieldIndexScalar(VmcsField field);

// Lookup; returns nullptr for an encoding outside the table.
constexpr const VmcsFieldInfo* FindVmcsField(VmcsField field) {
  const int idx = VmcsFieldIndex(field);
  return idx >= 0 ? &vmx_fields_detail::kTable[static_cast<size_t>(idx)]
                  : nullptr;
}

constexpr const VmcsFieldInfo* FindVmcsField(uint32_t encoding) {
  return FindVmcsField(static_cast<VmcsField>(encoding));
}

// Derive the width class from the raw encoding (SDM bits 14:13).
constexpr VmcsFieldWidth WidthClassOfEncoding(uint32_t encoding) {
  return static_cast<VmcsFieldWidth>((encoding >> 13) & 0x3);
}

// True if the encoding denotes a read-only (VM-exit information) field.
constexpr bool IsReadOnlyField(VmcsField field) {
  using vmx_fields_detail::kTable;
  const int idx = VmcsFieldIndex(field);
  return idx >= 0 && kTable[static_cast<size_t>(idx)].group ==
                         VmcsFieldGroup::kReadOnlyData;
}

std::string_view VmcsFieldName(VmcsField field);

}  // namespace neco

#endif  // SRC_ARCH_VMX_FIELDS_H_
