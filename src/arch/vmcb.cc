#include "src/arch/vmcb.h"

#include "src/arch/vmx_bits.h"

namespace neco {

std::string_view VmcbFieldName(VmcbField field) {
  const VmcbFieldInfo* info = FindVmcbField(field);
  return info != nullptr ? info->name : std::string_view("<unknown>");
}

std::vector<uint8_t> Vmcb::ToBitImage() const {
  std::vector<uint8_t> image(BitImageSize(), 0);
  EncodeBitImage(VmcbFieldTable(), values_, image);
  return image;
}

void Vmcb::FromBitImage(std::span<const uint8_t> image) {
  DecodeBitImage(VmcbFieldTable(), image, values_);
}

std::vector<uint8_t> Vmcb::ToBitImageScalar() const {
  std::vector<uint8_t> image(BitImageSize(), 0);
  EncodeBitImageScalar(VmcbFieldTable(), values_, image);
  return image;
}

void Vmcb::FromBitImageScalar(std::span<const uint8_t> image) {
  DecodeBitImageScalar(VmcbFieldTable(), image, values_);
}

Vmcb MakeDefaultVmcb() {
  Vmcb v;
  // Control: intercept VMRUN (architecturally required) plus the standard
  // KVM-style intercept set; nested paging on; ASID 1.
  v.Write(VmcbField::kInterceptVec3,
          SvmIntercept3::kIntr | SvmIntercept3::kNmi | SvmIntercept3::kCpuid |
              SvmIntercept3::kHlt | SvmIntercept3::kIoioProt |
              SvmIntercept3::kMsrProt | SvmIntercept3::kShutdown);
  v.Write(VmcbField::kInterceptVec4,
          SvmIntercept4::kVmrun | SvmIntercept4::kVmmcall |
              SvmIntercept4::kVmload | SvmIntercept4::kVmsave |
              SvmIntercept4::kStgi | SvmIntercept4::kClgi |
              SvmIntercept4::kSkinit);
  v.Write(VmcbField::kGuestAsid, 1);
  v.Write(VmcbField::kNestedCtl, 1);  // NP_ENABLE.
  v.Write(VmcbField::kNestedCr3, 0x9000);
  v.Write(VmcbField::kIopmBasePa, 0xa000);
  v.Write(VmcbField::kMsrpmBasePa, 0xc000);

  // Save area: 64-bit long-mode guest.
  v.Write(VmcbField::kEfer, Efer::kSvme | Efer::kLme | Efer::kLma);
  v.Write(VmcbField::kCr0, Cr0::kPe | Cr0::kPg | Cr0::kNe | Cr0::kEt);
  v.Write(VmcbField::kCr3, 0x2000);
  v.Write(VmcbField::kCr4, Cr4::kPae);
  v.Write(VmcbField::kRflags, Rflags::kFixed1);
  v.Write(VmcbField::kRip, 0x100000);
  v.Write(VmcbField::kRsp, 0x8000);
  v.Write(VmcbField::kDr6, 0xffff0ff0);
  v.Write(VmcbField::kDr7, 0x400);
  v.Write(VmcbField::kGPat, 0x0007040600070406ULL);

  v.Write(VmcbField::kCsSelector, 0x08);
  v.Write(VmcbField::kCsAttrib, 0x029b);  // Long-mode code, present.
  v.Write(VmcbField::kCsLimit, 0xffffffff);
  v.Write(VmcbField::kEsSelector, 0x10);
  v.Write(VmcbField::kEsAttrib, 0x0093);
  v.Write(VmcbField::kEsLimit, 0xffffffff);
  v.Write(VmcbField::kSsSelector, 0x10);
  v.Write(VmcbField::kSsAttrib, 0x0093);
  v.Write(VmcbField::kSsLimit, 0xffffffff);
  v.Write(VmcbField::kDsSelector, 0x10);
  v.Write(VmcbField::kDsAttrib, 0x0093);
  v.Write(VmcbField::kDsLimit, 0xffffffff);
  v.Write(VmcbField::kTrSelector, 0x18);
  v.Write(VmcbField::kTrAttrib, 0x008b);
  v.Write(VmcbField::kTrLimit, 0x67);
  v.Write(VmcbField::kTrBase, 0x3000);
  v.Write(VmcbField::kGdtrLimit, 0x7f);
  v.Write(VmcbField::kGdtrBase, 0x5000);
  v.Write(VmcbField::kIdtrLimit, 0xfff);
  v.Write(VmcbField::kIdtrBase, 0x5800);
  return v;
}

}  // namespace neco
