// In-memory VMCS representation.
//
// A Vmcs stores one value per field of the layout in vmx_fields.h. Values
// are masked to the field's semantic width on write. The class also
// supports flattening to/from the dense bit image used for raw fuzz-input
// interpretation and for the paper's Hamming-distance analysis.
#ifndef SRC_ARCH_VMCS_H_
#define SRC_ARCH_VMCS_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/arch/vmx_fields.h"
#include "src/support/bits.h"

namespace neco {

class Vmcs {
 public:
  // The VMCS revision identifier this model uses (stored at offset 0 of the
  // VMCS region in guest memory; checked by vmptrld/vmclear emulation).
  static constexpr uint32_t kRevisionId = 0x4e65636f;  // 'Neco'

  // Field accessors; out-of-table fields read as 0 / ignore writes and
  // return false. Constant time, and folded at compile time for a literal
  // field.
  uint64_t Read(VmcsField field) const {
    const int idx = VmcsFieldIndex(field);
    return idx < 0 ? 0 : values_[static_cast<size_t>(idx)];
  }
  bool Write(VmcsField field, uint64_t value) {
    const int idx = VmcsFieldIndex(field);
    if (idx < 0) {
      return false;
    }
    const size_t i = static_cast<size_t>(idx);
    values_[i] = value & MaskLow(VmcsFieldTable()[i].bits);
    return true;
  }
  bool Has(VmcsField field) const { return VmcsFieldIndex(field) >= 0; }

  // Launch-state tracking (vmclear -> clear; vmlaunch -> launched).
  enum class LaunchState : uint8_t { kClear, kLaunched };
  LaunchState launch_state() const { return launch_state_; }
  void set_launch_state(LaunchState s) { launch_state_ = s; }

  // Flatten all fields into a packed little-endian bit image of
  // VmcsTotalBits() bits (VmcsTotalBits()/8 bytes). Field order follows the
  // field table.
  std::vector<uint8_t> ToBitImage() const;

  // Populate fields from a packed bit image; missing tail bits read as 0.
  void FromBitImage(std::span<const uint8_t> image);

  // Bit-at-a-time reference implementations of the two above (see
  // src/arch/bit_image.h).
  std::vector<uint8_t> ToBitImageScalar() const;
  void FromBitImageScalar(std::span<const uint8_t> image);

  // Byte size of the full bit image.
  static constexpr size_t BitImageSize() { return (VmcsTotalBits() + 7) / 8; }

  bool operator==(const Vmcs& other) const { return values_ == other.values_; }

 private:
  std::array<uint64_t, VmcsFieldCount()> values_{};  // By VmcsFieldIndex.
  LaunchState launch_state_ = LaunchState::kClear;
};

// A default VMCS describing a minimal but *valid* 64-bit guest and host, the
// "golden" configuration a well-behaved hypervisor would produce. Used as
// the reference point for Figure 5's "Default vs Validated" distribution and
// as the seed for baseline tools.
Vmcs MakeDefaultVmcs();

}  // namespace neco

#endif  // SRC_ARCH_VMCS_H_
