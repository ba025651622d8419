// The dense bit image of a field table (Vmcs, Vmcb): field i's value
// occupies the `bits` bits right after field i-1's, little-endian. The
// validators read raw fuzz-input bytes through it, and the paper's
// Hamming-distance analysis (Section 5.3.2) measures distances over it.
//
// Every field width is a whole number of bytes (both tables static_assert
// FieldsAreWholeBytes), so each field starts on a byte boundary and the
// codec below moves bytes, not bits. The bit-at-a-time loops are retained
// as *Scalar reference implementations; tests/arch_test.cc proves the
// byte codec identical to them on randomized images.
#ifndef SRC_ARCH_BIT_IMAGE_H_
#define SRC_ARCH_BIT_IMAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/support/bits.h"

namespace neco {

// Sum of the table's field widths in bits.
template <typename Table>
constexpr size_t BitImageBits(const Table& table) {
  size_t total = 0;
  for (const auto& info : table) {
    total += info.bits;
  }
  return total;
}

// True if every width is 8, 16, ... or 64 bits, which the byte codec
// depends on.
template <typename Table>
constexpr bool FieldsAreWholeBytes(const Table& table) {
  for (const auto& info : table) {
    if (info.bits == 0 || info.bits > 64 || info.bits % 8 != 0) {
      return false;
    }
  }
  return true;
}

// Fills values[i] from the image; bytes past the end of a short image
// read as 0.
template <typename Table>
void DecodeBitImage(const Table& table, std::span<const uint8_t> image,
                    std::span<uint64_t> values) {
  size_t pos = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const size_t bytes = table[i].bits / 8u;
    const size_t avail =
        pos < image.size() ? std::min(bytes, image.size() - pos) : 0;
    uint64_t v = 0;
    for (size_t b = 0; b < avail; ++b) {
      v |= static_cast<uint64_t>(image[pos + b]) << (8 * b);
    }
    values[i] = v;
    pos += bytes;
  }
}

// Writes values[i] (already masked to its width) into an image of
// BitImageBits(table) / 8 bytes.
template <typename Table>
void EncodeBitImage(const Table& table, std::span<const uint64_t> values,
                    std::span<uint8_t> image) {
  size_t pos = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const size_t bytes = table[i].bits / 8u;
    for (size_t b = 0; b < bytes; ++b) {
      image[pos++] = static_cast<uint8_t>(values[i] >> (8 * b));
    }
  }
}

// Bit-at-a-time reference implementation of DecodeBitImage.
template <typename Table>
void DecodeBitImageScalar(const Table& table, std::span<const uint8_t> image,
                          std::span<uint64_t> values) {
  size_t bitpos = 0;
  const size_t total_bits = image.size() * 8;
  for (size_t i = 0; i < table.size(); ++i) {
    uint64_t v = 0;
    for (unsigned b = 0; b < table[i].bits; ++b, ++bitpos) {
      if (bitpos < total_bits &&
          (image[bitpos / 8] & (1u << (bitpos % 8))) != 0) {
        v = SetBit(v, b);
      }
    }
    values[i] = v;
  }
}

// Bit-at-a-time reference implementation of EncodeBitImage; `image` must
// be zero-filled.
template <typename Table>
void EncodeBitImageScalar(const Table& table, std::span<const uint64_t> values,
                          std::span<uint8_t> image) {
  size_t bitpos = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    for (unsigned b = 0; b < table[i].bits; ++b, ++bitpos) {
      if (TestBit(values[i], b)) {
        image[bitpos / 8] |= static_cast<uint8_t>(1u << (bitpos % 8));
      }
    }
  }
}

}  // namespace neco

#endif  // SRC_ARCH_BIT_IMAGE_H_
