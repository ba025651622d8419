// Structured consumption of raw fuzzing-input bytes.
//
// NecoFuzz partitions each 2 KiB AFL++ input among the three VM-generator
// components (harness, validator, configurator). Each component consumes its
// slice through a ByteReader, which provides deterministic primitives for
// deriving integers and bounded choices. When the slice is exhausted the
// reader wraps around; an input is therefore always "long enough", matching
// the paper's fixed-size-input design.
#ifndef SRC_SUPPORT_BYTE_READER_H_
#define SRC_SUPPORT_BYTE_READER_H_

#include <cstdint>
#include <cstddef>
#include <span>

namespace neco {

class ByteReader {
 public:
  ByteReader() = default;
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool empty() const { return data_.empty(); }
  size_t size() const { return data_.size(); }
  size_t consumed() const { return consumed_; }

  uint8_t U8() {
    if (data_.empty()) {
      return 0;
    }
    const uint8_t b = data_[pos_];
    if (++pos_ == data_.size()) {
      pos_ = 0;
    }
    ++consumed_;
    return b;
  }

  uint16_t U16() {
    return static_cast<uint16_t>(U8()) | static_cast<uint16_t>(U8()) << 8;
  }

  uint32_t U32() {
    return static_cast<uint32_t>(U16()) | static_cast<uint32_t>(U16()) << 16;
  }

  uint64_t U64() {
    return static_cast<uint64_t>(U32()) | static_cast<uint64_t>(U32()) << 32;
  }

  // Uniform-ish value in [0, bound). bound == 0 returns 0.
  // Uses 32 input bits which keeps the mapping stable under byte mutation.
  uint64_t Below(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    return U32() % bound;
  }

  uint64_t Between(uint64_t lo, uint64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    return lo + Below(hi - lo + 1);
  }

  bool Bool() { return (U8() & 1) != 0; }

  // True with probability num/den, driven by input bytes.
  bool Chance(uint32_t num, uint32_t den) {
    if (den == 0) {
      return false;
    }
    return (U16() % den) < num;
  }

  // Sub-reader over a slice of the underlying data (absolute offsets).
  ByteReader Slice(size_t offset, size_t length) const {
    if (offset >= data_.size()) {
      return ByteReader();
    }
    const size_t avail = data_.size() - offset;
    return ByteReader(data_.subspan(offset, length < avail ? length : avail));
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  size_t consumed_ = 0;
};

}  // namespace neco

#endif  // SRC_SUPPORT_BYTE_READER_H_
