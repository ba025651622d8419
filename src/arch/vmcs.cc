#include "src/arch/vmcs.h"

#include "src/arch/vmx_bits.h"

namespace neco {

std::vector<uint8_t> Vmcs::ToBitImage() const {
  std::vector<uint8_t> image(BitImageSize(), 0);
  EncodeBitImage(VmcsFieldTable(), values_, image);
  return image;
}

void Vmcs::FromBitImage(std::span<const uint8_t> image) {
  DecodeBitImage(VmcsFieldTable(), image, values_);
}

std::vector<uint8_t> Vmcs::ToBitImageScalar() const {
  std::vector<uint8_t> image(BitImageSize(), 0);
  EncodeBitImageScalar(VmcsFieldTable(), values_, image);
  return image;
}

void Vmcs::FromBitImageScalar(std::span<const uint8_t> image) {
  DecodeBitImageScalar(VmcsFieldTable(), image, values_);
}

Vmcs MakeDefaultVmcs() {
  Vmcs v;
  // --- Control fields: default1 bits plus a standard EPT+VPID setup. ---
  v.Write(VmcsField::kPinBasedVmExecControl, 0x16);
  v.Write(VmcsField::kCpuBasedVmExecControl,
          0x0401e172u | ProcCtl::kActivateSecondary | ProcCtl::kUseMsrBitmaps |
              ProcCtl::kUseIoBitmaps);
  v.Write(VmcsField::kSecondaryVmExecControl,
          Proc2Ctl::kEnableEpt | Proc2Ctl::kEnableVpid);
  v.Write(VmcsField::kVmExitControls,
          ExitCtl::kDefault1 | ExitCtl::kHostAddrSpaceSize |
              ExitCtl::kSaveEfer | ExitCtl::kLoadEfer);
  v.Write(VmcsField::kVmEntryControls,
          EntryCtl::kDefault1 | EntryCtl::kIa32eModeGuest |
              EntryCtl::kLoadEfer);
  v.Write(VmcsField::kVirtualProcessorId, 1);
  // EPTP: write-back memory type, 4-level walk, page-aligned table.
  v.Write(VmcsField::kEptPointer, 0x1000 | 0x6 | (3u << 3));
  v.Write(VmcsField::kIoBitmapA, 0x6000);
  v.Write(VmcsField::kIoBitmapB, 0x7000);
  v.Write(VmcsField::kMsrBitmap, 0x8000);
  v.Write(VmcsField::kCr0GuestHostMask, Cr0::kPg | Cr0::kPe);
  v.Write(VmcsField::kCr4GuestHostMask, Cr4::kVmxe);
  v.Write(VmcsField::kCr0ReadShadow, Cr0::kPg | Cr0::kPe);
  v.Write(VmcsField::kCr4ReadShadow, 0);

  // --- Guest state: a flat 64-bit long-mode guest. ---
  v.Write(VmcsField::kGuestCr0,
          Cr0::kPe | Cr0::kPg | Cr0::kNe | Cr0::kEt | Cr0::kMp);
  v.Write(VmcsField::kGuestCr3, 0x2000);
  v.Write(VmcsField::kGuestCr4, Cr4::kPae | Cr4::kVmxe);
  v.Write(VmcsField::kGuestIa32Efer, Efer::kLme | Efer::kLma);
  v.Write(VmcsField::kGuestRflags, Rflags::kFixed1);
  v.Write(VmcsField::kGuestRip, 0x100000);
  v.Write(VmcsField::kGuestRsp, 0x8000);
  v.Write(VmcsField::kGuestDr7, 0x400);
  v.Write(VmcsField::kGuestIa32Pat, 0x0007040600070406ULL);

  v.Write(VmcsField::kGuestCsSelector, 0x08);
  v.Write(VmcsField::kGuestCsBase, 0);
  v.Write(VmcsField::kGuestCsLimit, 0xffffffff);
  v.Write(VmcsField::kGuestCsArBytes,
          0xb | SegAr::kS | SegAr::kP | SegAr::kL | SegAr::kG);
  const uint32_t data_ar = 0x3 | SegAr::kS | SegAr::kP | SegAr::kG | SegAr::kDb;
  struct SegFields {
    VmcsField sel;
    VmcsField base;
    VmcsField limit;
    VmcsField ar;
  };
  constexpr SegFields kDataSegs[] = {
      {VmcsField::kGuestEsSelector, VmcsField::kGuestEsBase,
       VmcsField::kGuestEsLimit, VmcsField::kGuestEsArBytes},
      {VmcsField::kGuestSsSelector, VmcsField::kGuestSsBase,
       VmcsField::kGuestSsLimit, VmcsField::kGuestSsArBytes},
      {VmcsField::kGuestDsSelector, VmcsField::kGuestDsBase,
       VmcsField::kGuestDsLimit, VmcsField::kGuestDsArBytes},
      {VmcsField::kGuestFsSelector, VmcsField::kGuestFsBase,
       VmcsField::kGuestFsLimit, VmcsField::kGuestFsArBytes},
      {VmcsField::kGuestGsSelector, VmcsField::kGuestGsBase,
       VmcsField::kGuestGsLimit, VmcsField::kGuestGsArBytes},
  };
  for (const auto& seg : kDataSegs) {
    v.Write(seg.sel, 0x10);
    v.Write(seg.base, 0);
    v.Write(seg.limit, 0xffffffff);
    v.Write(seg.ar, data_ar);
  }
  // TR: 64-bit busy TSS, required usable.
  v.Write(VmcsField::kGuestTrSelector, 0x18);
  v.Write(VmcsField::kGuestTrBase, 0x3000);
  v.Write(VmcsField::kGuestTrLimit, 0x67);
  v.Write(VmcsField::kGuestTrArBytes, 0xb | SegAr::kP);
  // LDTR unusable.
  v.Write(VmcsField::kGuestLdtrSelector, 0);
  v.Write(VmcsField::kGuestLdtrArBytes, SegAr::kUnusable);
  v.Write(VmcsField::kGuestGdtrBase, 0x5000);
  v.Write(VmcsField::kGuestGdtrLimit, 0x7f);
  v.Write(VmcsField::kGuestIdtrBase, 0x5800);
  v.Write(VmcsField::kGuestIdtrLimit, 0xfff);
  v.Write(VmcsField::kGuestActivityState,
          static_cast<uint32_t>(ActivityState::kActive));
  v.Write(VmcsField::kGuestInterruptibilityInfo, 0);
  v.Write(VmcsField::kVmcsLinkPointer, ~0ULL);

  // --- Host state: 64-bit kernel-style host. ---
  v.Write(VmcsField::kHostCr0, Cr0::kPe | Cr0::kPg | Cr0::kNe | Cr0::kEt);
  v.Write(VmcsField::kHostCr3, 0x4000);
  v.Write(VmcsField::kHostCr4, Cr4::kPae | Cr4::kVmxe);
  v.Write(VmcsField::kHostIa32Efer, Efer::kLme | Efer::kLma);
  v.Write(VmcsField::kHostCsSelector, 0x08);
  v.Write(VmcsField::kHostTrSelector, 0x18);
  for (auto sel : {VmcsField::kHostEsSelector, VmcsField::kHostSsSelector,
                   VmcsField::kHostDsSelector, VmcsField::kHostFsSelector,
                   VmcsField::kHostGsSelector}) {
    v.Write(sel, 0x10);
  }
  v.Write(VmcsField::kHostRip, 0xffffffff81000000ULL);
  v.Write(VmcsField::kHostRsp, 0xffff888000010000ULL);
  v.Write(VmcsField::kHostIa32Pat, 0x0007040600070406ULL);
  // Bases default to 0, which is canonical.
  return v;
}

}  // namespace neco
