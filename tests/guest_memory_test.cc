// GuestMemory (flat open-addressed table) against GuestMemoryScalar, the
// std::map model it replaced, over random operation sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/hv/guest_memory.h"
#include "src/support/rng.h"

namespace neco {
namespace {

// Addresses the way the agent and the simulators use them: clustered
// around a few region bases (VMCS regions, MSR areas, I/O and MSR bitmaps)
// at any byte offset, plus scattered 64-bit values from raw VMCS fields.
uint64_t PickAddress(Rng& rng, const std::vector<uint64_t>& bases) {
  if (rng.Below(4) == 0) {
    return rng.Next();
  }
  return bases[rng.Below(bases.size())] + rng.Below(4096);
}

void ExpectSameContents(const GuestMemory& mem, const GuestMemoryScalar& ref,
                        Rng& rng, const std::vector<uint64_t>& bases) {
  ASSERT_EQ(mem.touched_words(), ref.touched_words());
  for (int i = 0; i < 64; ++i) {
    const uint64_t addr = PickAddress(rng, bases);
    ASSERT_EQ(mem.Read64(addr), ref.Read64(addr)) << std::hex << addr;
  }
}

TEST(GuestMemoryTest, MatchesMapModelOnRandomOperations) {
  Rng rng(0x6e3);
  std::vector<uint64_t> bases;
  for (int i = 0; i < 12; ++i) {
    bases.push_back(rng.Next() & ~0xfffULL);
  }
  GuestMemory mem;
  GuestMemoryScalar ref;
  for (int op = 0; op < 200000; ++op) {
    const uint64_t addr = PickAddress(rng, bases);
    switch (rng.Below(16)) {
      case 0:
      case 1:
      case 2: {
        const uint64_t v = rng.Next();
        mem.Write64(addr, v);
        ref.Write64(addr, v);
        break;
      }
      case 3:
      case 4:
      case 5: {
        // Both halves of a word: addr & 4 selects the upper one.
        const uint32_t v = static_cast<uint32_t>(rng.Next());
        mem.Write32(addr, v);
        ref.Write32(addr, v);
        break;
      }
      case 6:
      case 7: {
        const uint64_t bit = rng.Below(0x8000);
        const bool on = rng.Below(4) != 0;
        mem.SetBit(addr, bit, on);
        ref.SetBit(addr, bit, on);
        break;
      }
      case 8:
      case 9: {
        const uint64_t bit = rng.Below(0x8000);
        ASSERT_EQ(mem.TestBit(addr, bit), ref.TestBit(addr, bit));
        break;
      }
      case 10:
      case 11:
        ASSERT_EQ(mem.Read32(addr), ref.Read32(addr)) << std::hex << addr;
        break;
      case 12:
      case 13:
      case 14:
        ASSERT_EQ(mem.Read64(addr), ref.Read64(addr)) << std::hex << addr;
        break;
      default:
        // Occasional Clear, so the table is reused after growing.
        if (rng.Below(200) == 0) {
          ExpectSameContents(mem, ref, rng, bases);
          mem.Clear();
          ref.Clear();
        }
        break;
    }
    ASSERT_EQ(mem.touched_words(), ref.touched_words()) << "op " << op;
  }
  ExpectSameContents(mem, ref, rng, bases);
}

// Growth well past the initial capacity keeps every word, and Clear()
// empties the grown table so it can be filled again.
TEST(GuestMemoryTest, GrowsClearsAndIsReused) {
  GuestMemory mem;
  GuestMemoryScalar ref;
  for (int round = 0; round < 3; ++round) {
    const uint64_t words = 5000 + 1000 * static_cast<uint64_t>(round);
    for (uint64_t i = 0; i < words; ++i) {
      const uint64_t addr = 0x100000 * round + i * 8 + (i % 8);
      mem.Write64(addr, i * 3 + round);
      ref.Write64(addr, i * 3 + round);
    }
    ASSERT_EQ(mem.touched_words(), words);
    ASSERT_EQ(ref.touched_words(), words);
    for (uint64_t i = 0; i < words; ++i) {
      const uint64_t addr = 0x100000 * round + i * 8;
      ASSERT_EQ(mem.Read64(addr), ref.Read64(addr)) << i;
    }
    mem.Clear();
    ref.Clear();
    EXPECT_EQ(mem.touched_words(), 0u);
    EXPECT_EQ(mem.Read64(0x100000 * round), 0u);
  }
}

// Reads never create words; a SetBit that clears, and a zero write, do.
TEST(GuestMemoryTest, TouchedWordsFollowWritesOnly) {
  GuestMemory mem;
  EXPECT_EQ(mem.Read64(0x1000), 0u);
  EXPECT_EQ(mem.Read32(0x1004), 0u);
  EXPECT_FALSE(mem.TestBit(0x2000, 77));
  EXPECT_EQ(mem.touched_words(), 0u);
  mem.SetBit(0x2000, 77, false);
  mem.Write64(0x3000, 0);
  EXPECT_EQ(mem.touched_words(), 2u);
  mem.Write32(0x3004, 0xdeadbeef);
  EXPECT_EQ(mem.touched_words(), 2u);
  EXPECT_EQ(mem.Read64(0x3000), 0xdeadbeef00000000ULL);
  EXPECT_EQ(mem.Read32(0x3000), 0u);
}

}  // namespace
}  // namespace neco
