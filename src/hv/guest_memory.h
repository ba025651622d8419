// Sparse model of L1 guest-physical memory.
//
// The fuzz-harness VM places structures the L0 hypervisor must read from
// guest memory — MSR-load/store areas, I/O and MSR bitmaps — at addresses
// it chooses. This sparse map stands in for the guest address space: reads
// of unwritten locations return zero, as freshly allocated guest pages do.
//
// Every execution clears it and plants a few dozen words, so it is a flat
// open-addressed table of 8-byte words (linear probing, at most half full)
// that remembers its occupied slots: lookups touch one or two cache lines
// and Clear() costs O(words written), not O(capacity). The std::map model
// it replaced is kept as GuestMemoryScalar, the reference the equivalence
// tests and bench/hot_path compare it against.
#ifndef SRC_HV_GUEST_MEMORY_H_
#define SRC_HV_GUEST_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace neco {

class GuestMemory {
 public:
  GuestMemory() : slots_(kInitialSlots) {}

  uint64_t Read64(uint64_t addr) const {
    const Slot& slot = slots_[Probe(addr & ~7ULL)];
    return slot.key == kEmpty ? 0 : slot.value;
  }

  void Write64(uint64_t addr, uint64_t value) { Word(addr) = value; }

  uint32_t Read32(uint64_t addr) const {
    const uint64_t w = Read64(addr);
    return (addr & 4) != 0 ? static_cast<uint32_t>(w >> 32)
                           : static_cast<uint32_t>(w);
  }

  void Write32(uint64_t addr, uint32_t value) {
    uint64_t& w = Word(addr);
    if ((addr & 4) != 0) {
      w = (w & 0x00000000ffffffffULL) | (static_cast<uint64_t>(value) << 32);
    } else {
      w = (w & 0xffffffff00000000ULL) | value;
    }
  }

  // Bit test within a byte-addressed bitmap (I/O bitmap, MSR bitmap
  // semantics: bit N of the page starting at `base`).
  bool TestBit(uint64_t base, uint64_t bit) const {
    const uint64_t addr = base + (bit / 64) * 8;
    return (Read64(addr) >> (bit % 64)) & 1;
  }

  void SetBit(uint64_t base, uint64_t bit, bool on) {
    uint64_t& w = Word(base + (bit / 64) * 8);
    const uint64_t mask = 1ULL << (bit % 64);
    w = on ? (w | mask) : (w & ~mask);
  }

  void Clear() {
    for (const size_t i : used_) {
      slots_[i].key = kEmpty;
    }
    used_.clear();
  }
  size_t touched_words() const { return used_.size(); }

 private:
  struct Slot {
    uint64_t key = kEmpty;  // 8-aligned word address, or kEmpty.
    uint64_t value = 0;
  };
  // Word addresses are 8-aligned, so an odd key never names one.
  static constexpr uint64_t kEmpty = 1;
  static constexpr size_t kInitialSlots = 256;  // A power of two.

  // Slot holding `key`, or the empty slot where it would go.
  size_t Probe(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing of the word number; the high bits mix best.
    size_t i = static_cast<size_t>(((key >> 3) * 0x9e3779b97f4a7c15ULL) >>
                                   32) & mask;
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // The word at `addr`, inserted as 0 if unwritten.
  uint64_t& Word(uint64_t addr) {
    const uint64_t key = addr & ~7ULL;
    size_t i = Probe(key);
    if (slots_[i].key == kEmpty) {
      if (2 * (used_.size() + 1) > slots_.size()) {
        Grow();
        i = Probe(key);
      }
      slots_[i].key = key;
      slots_[i].value = 0;
      used_.push_back(i);
    }
    return slots_[i].value;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    std::vector<size_t> old_used;
    old_used.swap(used_);
    for (const size_t i : old_used) {
      const size_t j = Probe(old[i].key);
      slots_[j] = old[i];
      used_.push_back(j);
    }
  }

  std::vector<Slot> slots_;
  std::vector<size_t> used_;  // Occupied slot indices, in insertion order.
};

// The std::map-backed model GuestMemory replaced; the reference for the
// equivalence tests and bench/hot_path.
class GuestMemoryScalar {
 public:
  uint64_t Read64(uint64_t addr) const {
    auto it = words_.find(addr & ~7ULL);
    return it != words_.end() ? it->second : 0;
  }

  void Write64(uint64_t addr, uint64_t value) {
    words_[addr & ~7ULL] = value;
  }

  uint32_t Read32(uint64_t addr) const {
    const uint64_t w = Read64(addr);
    return (addr & 4) != 0 ? static_cast<uint32_t>(w >> 32)
                           : static_cast<uint32_t>(w);
  }

  void Write32(uint64_t addr, uint32_t value) {
    uint64_t w = Read64(addr);
    if ((addr & 4) != 0) {
      w = (w & 0x00000000ffffffffULL) | (static_cast<uint64_t>(value) << 32);
    } else {
      w = (w & 0xffffffff00000000ULL) | value;
    }
    Write64(addr, w);
  }

  bool TestBit(uint64_t base, uint64_t bit) const {
    const uint64_t addr = base + (bit / 64) * 8;
    return (Read64(addr) >> (bit % 64)) & 1;
  }

  void SetBit(uint64_t base, uint64_t bit, bool on) {
    const uint64_t addr = base + (bit / 64) * 8;
    uint64_t w = Read64(addr);
    const uint64_t mask = 1ULL << (bit % 64);
    Write64(addr, on ? (w | mask) : (w & ~mask));
  }

  void Clear() { words_.clear(); }
  size_t touched_words() const { return words_.size(); }

 private:
  std::map<uint64_t, uint64_t> words_;
};

// Layout of one VM-entry/exit MSR area entry in guest memory (16 bytes:
// MSR index, reserved, value).
struct MsrAreaEntry {
  uint32_t index = 0;
  uint64_t value = 0;
};

inline MsrAreaEntry ReadMsrAreaEntry(const GuestMemory& mem, uint64_t base,
                                     uint64_t i) {
  MsrAreaEntry e;
  e.index = static_cast<uint32_t>(mem.Read64(base + i * 16));
  e.value = mem.Read64(base + i * 16 + 8);
  return e;
}

inline void WriteMsrAreaEntry(GuestMemory& mem, uint64_t base, uint64_t i,
                              const MsrAreaEntry& e) {
  mem.Write64(base + i * 16, e.index);
  mem.Write64(base + i * 16 + 8, e.value);
}

}  // namespace neco

#endif  // SRC_HV_GUEST_MEMORY_H_
