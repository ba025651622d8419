// Tests for the architecture model: the VMCS field table geometry, the
// Vmcs/Vmcb containers, capability-MSR derivation and CPU-feature sets.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/arch/cpu_features.h"
#include "src/arch/vmcb.h"
#include "src/arch/vmcs.h"
#include "src/arch/vmx_bits.h"
#include "src/arch/vmx_caps.h"
#include "src/arch/vmx_fields.h"
#include "src/support/rng.h"

namespace neco {
namespace {

// The paper's state geometry: "an 8,000-bit VM state across 165 fields
// with predefined widths" (Section 5.3.2).
TEST(VmcsFieldsTest, PaperStateGeometry) {
  EXPECT_EQ(VmcsFieldCount(), 165u);
  EXPECT_EQ(VmcsTotalBits(), 8000u);
  EXPECT_EQ(Vmcs::BitImageSize(), 1000u);
}

TEST(VmcsFieldsTest, EncodingsAreUniqueAndWidthClassed) {
  std::set<uint32_t> encodings;
  std::set<std::string_view> names;
  for (const VmcsFieldInfo& info : VmcsFieldTable()) {
    const uint32_t enc = static_cast<uint32_t>(info.field);
    EXPECT_TRUE(encodings.insert(enc).second) << "duplicate encoding " << enc;
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
    // SDM encoding bits 14:13 define the access width class.
    EXPECT_EQ(WidthClassOfEncoding(enc), info.width_class)
        << info.name << " encoding disagrees with its declared width class";
    EXPECT_GT(info.bits, 0);
    EXPECT_LE(info.bits, 64);
  }
}

TEST(VmcsFieldsTest, LookupAndIndex) {
  const VmcsFieldInfo* info = FindVmcsField(VmcsField::kGuestCr0);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "guest_cr0");
  EXPECT_EQ(info->group, VmcsFieldGroup::kGuestState);
  EXPECT_EQ(FindVmcsField(0xdead0u), nullptr);
  EXPECT_EQ(VmcsFieldIndex(VmcsField::kVirtualProcessorId), 0);
  EXPECT_EQ(VmcsFieldIndex(static_cast<VmcsField>(0x9999)), -1);
}

TEST(VmcsFieldsTest, ReadOnlyClassification) {
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kVmExitReason));
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kExitQualification));
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kGuestPhysicalAddress));
  EXPECT_FALSE(IsReadOnlyField(VmcsField::kGuestCr0));
  EXPECT_FALSE(IsReadOnlyField(VmcsField::kPinBasedVmExecControl));
}

// The slot-table index must agree with the linear scan on every 16-bit
// encoding: table fields map to their position, everything else to -1.
TEST(VmcsFieldsTest, SlotIndexMatchesScalarOnEveryEncoding) {
  const auto table = VmcsFieldTable();
  size_t found = 0;
  for (uint32_t enc = 0; enc <= 0xffff; ++enc) {
    const VmcsField field = static_cast<VmcsField>(enc);
    const int want = VmcsFieldIndexScalar(field);
    ASSERT_EQ(VmcsFieldIndex(field), want) << std::hex << enc;
    const VmcsFieldInfo* want_info =
        want >= 0 ? &table[static_cast<size_t>(want)] : nullptr;
    ASSERT_EQ(FindVmcsField(enc), want_info) << std::hex << enc;
    ASSERT_EQ(IsReadOnlyField(field),
              want_info != nullptr &&
                  want_info->group == VmcsFieldGroup::kReadOnlyData)
        << std::hex << enc;
    found += want >= 0 ? 1 : 0;
  }
  EXPECT_EQ(found, VmcsFieldCount());
}

// Random 32-bit values, half of them a table encoding with random upper
// bits, which shares its slot with a real field: the exact-match check
// must reject them.
TEST(VmcsFieldsTest, SlotIndexMatchesScalarOnRandomWords) {
  const auto table = VmcsFieldTable();
  Rng rng(0x5107);
  for (int i = 0; i < 200000; ++i) {
    uint32_t enc = static_cast<uint32_t>(rng.Next());
    if ((i & 1) != 0) {
      enc = static_cast<uint32_t>(table[rng.Below(table.size())].field) |
            (enc & 0xffff0000u);
    }
    const VmcsField field = static_cast<VmcsField>(enc);
    ASSERT_EQ(VmcsFieldIndex(field), VmcsFieldIndexScalar(field))
        << std::hex << enc;
  }
}

// Literal lookups and the layout geometry are compile-time constants.
static_assert(VmcsFieldIndex(VmcsField::kVirtualProcessorId) == 0);
static_assert(VmcsFieldIndex(static_cast<VmcsField>(0x9999)) == -1);
static_assert(IsReadOnlyField(VmcsField::kVmExitReason));
static_assert(Vmcs::BitImageSize() == 1000);
static_assert(Vmcb::BitImageSize() * 8 == VmcbTotalBits());

TEST(VmcsFieldsTest, GroupCountsArePlausible) {
  size_t control = 0, guest = 0, host = 0, ro = 0;
  for (const VmcsFieldInfo& info : VmcsFieldTable()) {
    switch (info.group) {
      case VmcsFieldGroup::kControl: ++control; break;
      case VmcsFieldGroup::kGuestState: ++guest; break;
      case VmcsFieldGroup::kHostState: ++host; break;
      case VmcsFieldGroup::kReadOnlyData: ++ro; break;
    }
  }
  EXPECT_EQ(control + guest + host + ro, 165u);
  EXPECT_GT(guest, host);   // Guest state is the largest area.
  EXPECT_GT(control, 40u);  // Controls are substantial.
  EXPECT_EQ(ro, 15u);       // Exit-information fields.
}

TEST(VmcsTest, WriteMasksToFieldWidth) {
  Vmcs v;
  v.Write(VmcsField::kGuestEsSelector, 0x12345678);
  EXPECT_EQ(v.Read(VmcsField::kGuestEsSelector), 0x5678u);
  v.Write(VmcsField::kPinBasedVmExecControl, 0x1234567890ULL);
  EXPECT_EQ(v.Read(VmcsField::kPinBasedVmExecControl), 0x34567890u);
  v.Write(VmcsField::kGuestRip, ~0ULL);
  EXPECT_EQ(v.Read(VmcsField::kGuestRip), ~0ULL);
}

TEST(VmcsTest, UnknownFieldRejected) {
  Vmcs v;
  EXPECT_FALSE(v.Write(static_cast<VmcsField>(0x9999), 1));
  EXPECT_EQ(v.Read(static_cast<VmcsField>(0x9999)), 0u);
  EXPECT_FALSE(v.Has(static_cast<VmcsField>(0x9999)));
  EXPECT_TRUE(v.Has(VmcsField::kGuestCr0));
}

TEST(VmcsTest, BitImageRoundTrip) {
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    Vmcs v;
    for (const VmcsFieldInfo& info : VmcsFieldTable()) {
      v.Write(info.field, rng.Next());
    }
    Vmcs back;
    back.FromBitImage(v.ToBitImage());
    EXPECT_TRUE(v == back) << "trial " << trial;
  }
}

TEST(VmcsTest, BitImageShortInputReadsZeroTail) {
  std::vector<uint8_t> partial(10, 0xff);
  Vmcs v;
  v.FromBitImage(partial);
  // The first fields are saturated, later ones zero.
  EXPECT_EQ(v.Read(VmcsField::kVirtualProcessorId), 0xffffu);
  EXPECT_EQ(v.Read(VmcsField::kHostRip), 0u);
}

TEST(VmcsTest, LaunchStateTracking) {
  Vmcs v;
  EXPECT_EQ(v.launch_state(), Vmcs::LaunchState::kClear);
  v.set_launch_state(Vmcs::LaunchState::kLaunched);
  EXPECT_EQ(v.launch_state(), Vmcs::LaunchState::kLaunched);
}

TEST(VmcbTest, FieldTableComplete) {
  EXPECT_EQ(VmcbFieldTable().size(), kNumVmcbFields);
  std::set<std::string_view> names;
  for (const VmcbFieldInfo& info : VmcbFieldTable()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
  }
  EXPECT_GT(VmcbTotalBits(), 3000u);
}

TEST(VmcbTest, WriteMasksToWidth) {
  Vmcb v;
  v.Write(VmcbField::kCpl, 0x1ff);
  EXPECT_EQ(v.Read(VmcbField::kCpl), 0xffu);
  v.Write(VmcbField::kEsSelector, 0xabcd1234);
  EXPECT_EQ(v.Read(VmcbField::kEsSelector), 0x1234u);
}

TEST(VmcbTest, BitImageRoundTrip) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    Vmcb v;
    for (const VmcbFieldInfo& info : VmcbFieldTable()) {
      v.Write(info.field, rng.Next());
    }
    Vmcb back;
    back.FromBitImage(v.ToBitImage());
    EXPECT_TRUE(v == back);
  }
}

// --- Byte-wise bit-image codec vs the bit-at-a-time reference ---------

template <typename State>
class BitImageCodecTest : public ::testing::Test {};

using StateTypes = ::testing::Types<Vmcs, Vmcb>;
TYPED_TEST_SUITE(BitImageCodecTest, StateTypes);

std::vector<uint8_t> RandomImage(Rng& rng, size_t size) {
  std::vector<uint8_t> image(size);
  for (auto& b : image) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return image;
}

// Full, short (the tail reads 0), empty and over-long images decode the
// same through both codecs, and re-encode the same.
TYPED_TEST(BitImageCodecTest, DecodeMatchesScalar) {
  using State = TypeParam;
  const size_t full = State::BitImageSize();
  Rng rng(0xb17 + full);
  for (int trial = 0; trial < 300; ++trial) {
    size_t size = full;
    switch (trial % 4) {
      case 1: size = rng.Below(full); break;
      case 2: size = 0; break;
      case 3: size = full + 1 + rng.Below(64); break;
      default: break;
    }
    const std::vector<uint8_t> image = RandomImage(rng, size);
    State fast;
    State scalar;
    fast.FromBitImage(image);
    scalar.FromBitImageScalar(image);
    ASSERT_TRUE(fast == scalar) << "trial " << trial << " size " << size;
    ASSERT_EQ(fast.ToBitImage(), scalar.ToBitImageScalar())
        << "trial " << trial;
  }
}

// To(From(x)) == x for every full-size image.
TYPED_TEST(BitImageCodecTest, FullImageRoundTrips) {
  using State = TypeParam;
  Rng rng(0x70f0 + State::BitImageSize());
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<uint8_t> image = RandomImage(rng, State::BitImageSize());
    State state;
    state.FromBitImage(image);
    ASSERT_EQ(state.ToBitImage(), image) << "trial " << trial;
  }
}

TEST(CpuFeaturesTest, VendorRestriction) {
  CpuFeatureSet all;
  all.set_raw(~0ULL);
  const CpuFeatureSet intel = all.RestrictedTo(Arch::kIntel);
  const CpuFeatureSet amd = all.RestrictedTo(Arch::kAmd);
  EXPECT_TRUE(intel.Has(CpuFeature::kEpt));
  EXPECT_FALSE(intel.Has(CpuFeature::kNpt));
  EXPECT_TRUE(amd.Has(CpuFeature::kNpt));
  EXPECT_FALSE(amd.Has(CpuFeature::kEpt));
  // Cross-vendor knobs survive both.
  EXPECT_TRUE(intel.Has(CpuFeature::kNestedVirt));
  EXPECT_TRUE(amd.Has(CpuFeature::kNestedVirt));
}

TEST(CpuFeaturesTest, NamesAndDefaults) {
  EXPECT_EQ(CpuFeatureName(CpuFeature::kEpt), "ept");
  EXPECT_EQ(CpuFeatureName(CpuFeature::kVgif), "vgif");
  const CpuFeatureSet def = DefaultFeatureSet(Arch::kIntel);
  EXPECT_TRUE(def.Has(CpuFeature::kNestedVirt));
  EXPECT_FALSE(def.Has(CpuFeature::kEnlightenedVmcs));
  EXPECT_NE(def.ToString().find("ept"), std::string::npos);
}

TEST(VmxCapsTest, FeatureBitsGateAllowed1) {
  CpuFeatureSet features = DefaultFeatureSet(Arch::kIntel);
  features.Set(CpuFeature::kEpt, false);
  const VmxCapabilities caps = MakeVmxCapabilities(features);
  EXPECT_EQ(caps.procbased2.allowed1 & Proc2Ctl::kEnableEpt, 0u);
  // Unrestricted guest requires EPT, so it disappears too.
  EXPECT_EQ(caps.procbased2.allowed1 & Proc2Ctl::kUnrestrictedGuest, 0u);
  EXPECT_FALSE(caps.ept_4level);

  const VmxCapabilities full = HostVmxCapabilities();
  EXPECT_NE(full.procbased2.allowed1 & Proc2Ctl::kEnableEpt, 0u);
  EXPECT_NE(full.procbased2.allowed1 & Proc2Ctl::kUnrestrictedGuest, 0u);
}

TEST(VmxCapsTest, CtlCapsRoundSatisfiesPermits) {
  Rng rng(42);
  const VmxCapabilities caps = HostVmxCapabilities();
  for (const CtlCaps* ctl : {&caps.pinbased, &caps.procbased,
                             &caps.procbased2, &caps.exit, &caps.entry}) {
    EXPECT_TRUE(ctl->Permits(ctl->fixed1));
    for (int i = 0; i < 200; ++i) {
      const uint32_t rounded = ctl->Round(static_cast<uint32_t>(rng.Next()));
      EXPECT_TRUE(ctl->Permits(rounded));
    }
  }
}

TEST(VmxCapsTest, Cr0FixedBitsIncludePePgNe) {
  const VmxCapabilities caps = HostVmxCapabilities();
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kPe, Cr0::kPe);
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kPg, Cr0::kPg);
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kNe, Cr0::kNe);
  EXPECT_EQ(caps.cr4_fixed0 & Cr4::kVmxe, Cr4::kVmxe);
}

TEST(DefaultStatesTest, DefaultVmcsDescribesLongModeGuest) {
  const Vmcs v = MakeDefaultVmcs();
  EXPECT_NE(v.Read(VmcsField::kGuestCr0) & Cr0::kPg, 0u);
  EXPECT_NE(v.Read(VmcsField::kGuestCr4) & Cr4::kPae, 0u);
  EXPECT_NE(v.Read(VmcsField::kGuestIa32Efer) & Efer::kLma, 0u);
  EXPECT_NE(static_cast<uint32_t>(v.Read(VmcsField::kVmEntryControls)) &
                EntryCtl::kIa32eModeGuest,
            0u);
  EXPECT_EQ(v.Read(VmcsField::kVmcsLinkPointer), ~0ULL);
}

TEST(DefaultStatesTest, DefaultVmcbDescribesLongModeGuest) {
  const Vmcb v = MakeDefaultVmcb();
  EXPECT_NE(v.Read(VmcbField::kEfer) & Efer::kSvme, 0u);
  EXPECT_NE(v.Read(VmcbField::kCr0) & Cr0::kPg, 0u);
  EXPECT_NE(v.Read(VmcbField::kInterceptVec4) & SvmIntercept4::kVmrun, 0u);
  EXPECT_NE(v.Read(VmcbField::kGuestAsid), 0u);
}

}  // namespace
}  // namespace neco
