// AMD-V VMCB model (control area + state-save area).
//
// Field names follow the AMD APM Vol. 2 Appendix B layout. Like the Vmcs
// model, a Vmcb stores one value per named field with a declared semantic
// width, and supports flattening to a dense bit image for raw fuzz-input
// interpretation and mutation.
#ifndef SRC_ARCH_VMCB_H_
#define SRC_ARCH_VMCB_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/arch/bit_image.h"
#include "src/support/bits.h"

namespace neco {

enum class VmcbField : uint16_t {
  // --- Control area ---
  kInterceptCrRead = 0,
  kInterceptCrWrite,
  kInterceptDrRead,
  kInterceptDrWrite,
  kInterceptExceptions,
  kInterceptVec3,      // Instruction intercepts incl. VMRUN/VMMCALL/...
  kInterceptVec4,      // VMLOAD/VMSAVE/STGI/CLGI/SKINIT/...
  kPauseFilterThresh,
  kPauseFilterCount,
  kIopmBasePa,
  kMsrpmBasePa,
  kTscOffset,
  kGuestAsid,
  kTlbControl,
  kVIntr,              // V_TPR / V_IRQ / V_INTR_MASKING / V_GIF / V_GIF_ENABLE.
  kInterruptShadow,
  kExitCode,
  kExitInfo1,
  kExitInfo2,
  kExitIntInfo,
  kNestedCtl,          // Bit 0: NP_ENABLE.
  kAvicApicBar,
  kEventInj,
  kNestedCr3,
  kVirtExt,            // Bit 0: LBR virt, bit 1: virtualized VMLOAD/VMSAVE.
  kVmcbClean,
  kNextRip,
  kAvicBackingPage,
  kAvicLogicalTable,
  kAvicPhysicalTable,
  // --- State-save area: segments ---
  kEsSelector, kEsAttrib, kEsLimit, kEsBase,
  kCsSelector, kCsAttrib, kCsLimit, kCsBase,
  kSsSelector, kSsAttrib, kSsLimit, kSsBase,
  kDsSelector, kDsAttrib, kDsLimit, kDsBase,
  kFsSelector, kFsAttrib, kFsLimit, kFsBase,
  kGsSelector, kGsAttrib, kGsLimit, kGsBase,
  kGdtrSelector, kGdtrAttrib, kGdtrLimit, kGdtrBase,
  kLdtrSelector, kLdtrAttrib, kLdtrLimit, kLdtrBase,
  kIdtrSelector, kIdtrAttrib, kIdtrLimit, kIdtrBase,
  kTrSelector, kTrAttrib, kTrLimit, kTrBase,
  // --- State-save area: system state ---
  kCpl,
  kEfer,
  kCr4,
  kCr3,
  kCr0,
  kDr7,
  kDr6,
  kRflags,
  kRip,
  kRsp,
  kRax,
  kStar,
  kLstar,
  kCstar,
  kSfmask,
  kKernelGsBase,
  kSysenterCs,
  kSysenterEsp,
  kSysenterEip,
  kCr2,
  kGPat,
  kDbgCtl,
  kBrFrom,
  kBrTo,
  kLastExcpFrom,
  kLastExcpTo,
  kCount,
};

constexpr size_t kNumVmcbFields = static_cast<size_t>(VmcbField::kCount);

enum class VmcbArea : uint8_t { kControl, kSave };

struct VmcbFieldInfo {
  VmcbField field;
  std::string_view name;
  VmcbArea area;
  uint8_t bits;
};

namespace vmcb_detail {

inline constexpr auto kCtl = VmcbArea::kControl;
inline constexpr auto kSave = VmcbArea::kSave;

constexpr std::array<VmcbFieldInfo, kNumVmcbFields> BuildTable() {
  std::array<VmcbFieldInfo, kNumVmcbFields> t{};
  auto set = [&t](VmcbField f, std::string_view name, VmcbArea a,
                  uint8_t bits) {
    t[static_cast<size_t>(f)] = VmcbFieldInfo{f, name, a, bits};
  };
  set(VmcbField::kInterceptCrRead, "intercept_cr_read", kCtl, 16);
  set(VmcbField::kInterceptCrWrite, "intercept_cr_write", kCtl, 16);
  set(VmcbField::kInterceptDrRead, "intercept_dr_read", kCtl, 16);
  set(VmcbField::kInterceptDrWrite, "intercept_dr_write", kCtl, 16);
  set(VmcbField::kInterceptExceptions, "intercept_exceptions", kCtl, 32);
  set(VmcbField::kInterceptVec3, "intercept_vec3", kCtl, 32);
  set(VmcbField::kInterceptVec4, "intercept_vec4", kCtl, 32);
  set(VmcbField::kPauseFilterThresh, "pause_filter_thresh", kCtl, 16);
  set(VmcbField::kPauseFilterCount, "pause_filter_count", kCtl, 16);
  set(VmcbField::kIopmBasePa, "iopm_base_pa", kCtl, 64);
  set(VmcbField::kMsrpmBasePa, "msrpm_base_pa", kCtl, 64);
  set(VmcbField::kTscOffset, "tsc_offset", kCtl, 64);
  set(VmcbField::kGuestAsid, "guest_asid", kCtl, 32);
  set(VmcbField::kTlbControl, "tlb_control", kCtl, 8);
  set(VmcbField::kVIntr, "v_intr", kCtl, 64);
  set(VmcbField::kInterruptShadow, "interrupt_shadow", kCtl, 64);
  set(VmcbField::kExitCode, "exit_code", kCtl, 64);
  set(VmcbField::kExitInfo1, "exit_info1", kCtl, 64);
  set(VmcbField::kExitInfo2, "exit_info2", kCtl, 64);
  set(VmcbField::kExitIntInfo, "exit_int_info", kCtl, 64);
  set(VmcbField::kNestedCtl, "nested_ctl", kCtl, 64);
  set(VmcbField::kAvicApicBar, "avic_apic_bar", kCtl, 64);
  set(VmcbField::kEventInj, "event_inj", kCtl, 64);
  set(VmcbField::kNestedCr3, "nested_cr3", kCtl, 64);
  set(VmcbField::kVirtExt, "virt_ext", kCtl, 64);
  set(VmcbField::kVmcbClean, "vmcb_clean", kCtl, 32);
  set(VmcbField::kNextRip, "next_rip", kCtl, 64);
  set(VmcbField::kAvicBackingPage, "avic_backing_page", kCtl, 64);
  set(VmcbField::kAvicLogicalTable, "avic_logical_table", kCtl, 64);
  set(VmcbField::kAvicPhysicalTable, "avic_physical_table", kCtl, 64);

  struct Seg {
    VmcbField sel, attrib, limit, base;
    std::string_view prefix;
  };
  constexpr Seg segs[] = {
      {VmcbField::kEsSelector, VmcbField::kEsAttrib, VmcbField::kEsLimit, VmcbField::kEsBase, "es"},
      {VmcbField::kCsSelector, VmcbField::kCsAttrib, VmcbField::kCsLimit, VmcbField::kCsBase, "cs"},
      {VmcbField::kSsSelector, VmcbField::kSsAttrib, VmcbField::kSsLimit, VmcbField::kSsBase, "ss"},
      {VmcbField::kDsSelector, VmcbField::kDsAttrib, VmcbField::kDsLimit, VmcbField::kDsBase, "ds"},
      {VmcbField::kFsSelector, VmcbField::kFsAttrib, VmcbField::kFsLimit, VmcbField::kFsBase, "fs"},
      {VmcbField::kGsSelector, VmcbField::kGsAttrib, VmcbField::kGsLimit, VmcbField::kGsBase, "gs"},
      {VmcbField::kGdtrSelector, VmcbField::kGdtrAttrib, VmcbField::kGdtrLimit, VmcbField::kGdtrBase, "gdtr"},
      {VmcbField::kLdtrSelector, VmcbField::kLdtrAttrib, VmcbField::kLdtrLimit, VmcbField::kLdtrBase, "ldtr"},
      {VmcbField::kIdtrSelector, VmcbField::kIdtrAttrib, VmcbField::kIdtrLimit, VmcbField::kIdtrBase, "idtr"},
      {VmcbField::kTrSelector, VmcbField::kTrAttrib, VmcbField::kTrLimit, VmcbField::kTrBase, "tr"},
  };
  // Static names: table entries need stable string_views, so spell them out.
  constexpr std::string_view sel_names[] = {
      "es_selector", "cs_selector", "ss_selector", "ds_selector",
      "fs_selector", "gs_selector", "gdtr_selector", "ldtr_selector",
      "idtr_selector", "tr_selector"};
  constexpr std::string_view attrib_names[] = {
      "es_attrib", "cs_attrib", "ss_attrib", "ds_attrib", "fs_attrib",
      "gs_attrib", "gdtr_attrib", "ldtr_attrib", "idtr_attrib", "tr_attrib"};
  constexpr std::string_view limit_names[] = {
      "es_limit", "cs_limit", "ss_limit", "ds_limit", "fs_limit",
      "gs_limit", "gdtr_limit", "ldtr_limit", "idtr_limit", "tr_limit"};
  constexpr std::string_view base_names[] = {
      "es_base", "cs_base", "ss_base", "ds_base", "fs_base",
      "gs_base", "gdtr_base", "ldtr_base", "idtr_base", "tr_base"};
  for (size_t i = 0; i < 10; ++i) {
    set(segs[i].sel, sel_names[i], kSave, 16);
    set(segs[i].attrib, attrib_names[i], kSave, 16);
    set(segs[i].limit, limit_names[i], kSave, 32);
    set(segs[i].base, base_names[i], kSave, 64);
  }

  set(VmcbField::kCpl, "cpl", kSave, 8);
  set(VmcbField::kEfer, "efer", kSave, 64);
  set(VmcbField::kCr4, "cr4", kSave, 64);
  set(VmcbField::kCr3, "cr3", kSave, 64);
  set(VmcbField::kCr0, "cr0", kSave, 64);
  set(VmcbField::kDr7, "dr7", kSave, 64);
  set(VmcbField::kDr6, "dr6", kSave, 64);
  set(VmcbField::kRflags, "rflags", kSave, 64);
  set(VmcbField::kRip, "rip", kSave, 64);
  set(VmcbField::kRsp, "rsp", kSave, 64);
  set(VmcbField::kRax, "rax", kSave, 64);
  set(VmcbField::kStar, "star", kSave, 64);
  set(VmcbField::kLstar, "lstar", kSave, 64);
  set(VmcbField::kCstar, "cstar", kSave, 64);
  set(VmcbField::kSfmask, "sfmask", kSave, 64);
  set(VmcbField::kKernelGsBase, "kernel_gs_base", kSave, 64);
  set(VmcbField::kSysenterCs, "sysenter_cs", kSave, 64);
  set(VmcbField::kSysenterEsp, "sysenter_esp", kSave, 64);
  set(VmcbField::kSysenterEip, "sysenter_eip", kSave, 64);
  set(VmcbField::kCr2, "cr2", kSave, 64);
  set(VmcbField::kGPat, "g_pat", kSave, 64);
  set(VmcbField::kDbgCtl, "dbgctl", kSave, 64);
  set(VmcbField::kBrFrom, "br_from", kSave, 64);
  set(VmcbField::kBrTo, "br_to", kSave, 64);
  set(VmcbField::kLastExcpFrom, "last_excp_from", kSave, 64);
  set(VmcbField::kLastExcpTo, "last_excp_to", kSave, 64);
  return t;
}

inline constexpr std::array<VmcbFieldInfo, kNumVmcbFields> kTable =
    BuildTable();

inline constexpr size_t kTotalBits = BitImageBits(kTable);

static_assert(FieldsAreWholeBytes(kTable),
              "the bit-image codec needs whole-byte VMCB field widths");

}  // namespace vmcb_detail

constexpr std::span<const VmcbFieldInfo> VmcbFieldTable() {
  return vmcb_detail::kTable;
}

constexpr size_t VmcbTotalBits() { return vmcb_detail::kTotalBits; }

constexpr const VmcbFieldInfo* FindVmcbField(VmcbField field) {
  return static_cast<size_t>(field) < kNumVmcbFields
             ? &vmcb_detail::kTable[static_cast<size_t>(field)]
             : nullptr;
}

std::string_view VmcbFieldName(VmcbField field);

// Intercept bits in kInterceptVec3 (APM vector 3).
struct SvmIntercept3 {
  static constexpr uint32_t kIntr = 1u << 0;
  static constexpr uint32_t kNmi = 1u << 1;
  static constexpr uint32_t kSmi = 1u << 2;
  static constexpr uint32_t kInit = 1u << 3;
  static constexpr uint32_t kVintr = 1u << 4;
  static constexpr uint32_t kCr0SelWrite = 1u << 5;
  static constexpr uint32_t kRdtsc = 1u << 9;
  static constexpr uint32_t kRdpmc = 1u << 10;
  static constexpr uint32_t kPushf = 1u << 11;
  static constexpr uint32_t kPopf = 1u << 12;
  static constexpr uint32_t kCpuid = 1u << 13;
  static constexpr uint32_t kRsm = 1u << 14;
  static constexpr uint32_t kIret = 1u << 15;
  static constexpr uint32_t kIntN = 1u << 16;
  static constexpr uint32_t kInvd = 1u << 17;
  static constexpr uint32_t kPause = 1u << 18;
  static constexpr uint32_t kHlt = 1u << 19;
  static constexpr uint32_t kInvlpg = 1u << 20;
  static constexpr uint32_t kInvlpga = 1u << 21;
  static constexpr uint32_t kIoioProt = 1u << 27;
  static constexpr uint32_t kMsrProt = 1u << 28;
  static constexpr uint32_t kTaskSwitch = 1u << 29;
  static constexpr uint32_t kFerrFreeze = 1u << 30;
  static constexpr uint32_t kShutdown = 1u << 31;
};

// Intercept bits in kInterceptVec4 (APM vector 4).
struct SvmIntercept4 {
  static constexpr uint32_t kVmrun = 1u << 0;
  static constexpr uint32_t kVmmcall = 1u << 1;
  static constexpr uint32_t kVmload = 1u << 2;
  static constexpr uint32_t kVmsave = 1u << 3;
  static constexpr uint32_t kStgi = 1u << 4;
  static constexpr uint32_t kClgi = 1u << 5;
  static constexpr uint32_t kSkinit = 1u << 6;
  static constexpr uint32_t kRdtscp = 1u << 7;
  static constexpr uint32_t kIcebp = 1u << 8;
  static constexpr uint32_t kWbinvd = 1u << 9;
  static constexpr uint32_t kMonitor = 1u << 10;
  static constexpr uint32_t kMwait = 1u << 11;
  static constexpr uint32_t kXsetbv = 1u << 13;
};

// kVIntr sub-fields.
struct SvmVintr {
  static constexpr uint64_t kVTprMask = 0xffULL;
  static constexpr uint64_t kVIrq = Bit(8);
  static constexpr uint64_t kVGif = Bit(9);
  static constexpr uint64_t kVIntrMasking = Bit(24);
  static constexpr uint64_t kVGifEnable = Bit(25);
  static constexpr uint64_t kAvicEnable = Bit(31);
};

// SVM exit codes (APM Appendix C) — subset the simulators dispatch on.
enum class SvmExitCode : uint64_t {
  kCr0Read = 0x000,
  kCr0Write = 0x010,
  kCr3Write = 0x013,
  kCr4Write = 0x014,
  kExcpBase = 0x040,
  kIntr = 0x060,
  kNmi = 0x061,
  kVintr = 0x064,
  kCpuid = 0x072,
  kIret = 0x074,
  kPause = 0x077,
  kHlt = 0x078,
  kInvlpg = 0x079,
  kInvlpga = 0x07a,
  kIoio = 0x07b,
  kMsr = 0x07c,
  kTaskSwitch = 0x07d,
  kShutdown = 0x07f,
  kVmrun = 0x080,
  kVmmcall = 0x081,
  kVmload = 0x082,
  kVmsave = 0x083,
  kStgi = 0x084,
  kClgi = 0x085,
  kSkinit = 0x086,
  kRdtscp = 0x087,
  kWbinvd = 0x089,
  kMonitor = 0x08a,
  kMwait = 0x08b,
  kXsetbv = 0x08d,
  kNpf = 0x400,
  kAvicIncompleteIpi = 0x401,
  kAvicNoAccel = 0x402,
  kVmgexit = 0x403,
  kInvalid = ~0ULL,  // VMEXIT_INVALID: consistency-check failure.
};

class Vmcb {
 public:
  uint64_t Read(VmcbField field) const {
    const size_t i = static_cast<size_t>(field);
    return i < kNumVmcbFields ? values_[i] : 0;
  }
  bool Write(VmcbField field, uint64_t value) {
    const size_t i = static_cast<size_t>(field);
    if (i >= kNumVmcbFields) {
      return false;
    }
    values_[i] = value & MaskLow(vmcb_detail::kTable[i].bits);
    return true;
  }

  std::vector<uint8_t> ToBitImage() const;
  void FromBitImage(std::span<const uint8_t> image);
  // Bit-at-a-time reference implementations (see src/arch/bit_image.h).
  std::vector<uint8_t> ToBitImageScalar() const;
  void FromBitImageScalar(std::span<const uint8_t> image);
  static constexpr size_t BitImageSize() { return (VmcbTotalBits() + 7) / 8; }

  bool operator==(const Vmcb& other) const { return values_ == other.values_; }

 private:
  std::array<uint64_t, kNumVmcbFields> values_{};
};

// A minimally valid VMCB for a 64-bit L2 guest (golden configuration).
Vmcb MakeDefaultVmcb();

}  // namespace neco

#endif  // SRC_ARCH_VMCB_H_
