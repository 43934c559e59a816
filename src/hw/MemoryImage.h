//===- hw/MemoryImage.h - Sparse simulated memory --------------*- C++ -*-===//
///
/// \file
/// Byte-addressable sparse memory for the simulated machine. Pages are
/// allocated zero-filled on first touch ("demand paged", like the CCT heap
/// region in §4.2). Values are little-endian.
///
//===----------------------------------------------------------------------===//

#ifndef PP_HW_MEMORYIMAGE_H
#define PP_HW_MEMORYIMAGE_H

#include "support/Compiler.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace pp {
namespace hw {

/// Sparse 64-bit address space backed by 4 KB pages.
class MemoryImage {
public:
  static constexpr uint64_t PageBytes = 4096;

  /// Reads \p Size bytes (1-8) at \p Addr, zero-extended. The common
  /// within-one-page case is inline with a small page TLB in front of the
  /// hash lookup (a cached data pointer stays valid across map rehashes —
  /// the page buffers themselves never move). A page that does not exist
  /// reads as zeros and is neither allocated nor cached.
  PP_ALWAYS_INLINE uint64_t peek(uint64_t Addr, unsigned Size) const {
    uint64_t Offset = Addr & (PageBytes - 1);
    if (Offset + Size <= PageBytes) {
      uint64_t PageIdx = Addr / PageBytes;
      TlbEntry &Entry = Tlb[tlbSlot(PageIdx)];
      const uint8_t *Page;
      if (Entry.PageIdx == PageIdx) {
        Page = Entry.Page;
      } else {
        Page = findPage(Addr);
        if (!Page)
          return 0;
        Entry = TlbEntry{PageIdx, const_cast<uint8_t *>(Page)};
      }
      // Dispatch on the access width so each memcpy has a constant size
      // (one host load/store) instead of a variable-length copy.
      uint64_t Value = 0;
      switch (Size) {
      case 8:
        std::memcpy(&Value, Page + Offset, 8);
        break;
      case 4:
        std::memcpy(&Value, Page + Offset, 4);
        break;
      case 2:
        std::memcpy(&Value, Page + Offset, 2);
        break;
      case 1:
        std::memcpy(&Value, Page + Offset, 1);
        break;
      default:
        std::memcpy(&Value, Page + Offset, Size);
      }
      return Value;
    }
    return peekSlow(Addr, Size);
  }

  /// Writes the low \p Size bytes of \p Value at \p Addr.
  PP_ALWAYS_INLINE void poke(uint64_t Addr, unsigned Size, uint64_t Value) {
    uint64_t Offset = Addr & (PageBytes - 1);
    if (Offset + Size <= PageBytes) {
      uint64_t PageIdx = Addr / PageBytes;
      TlbEntry &Entry = Tlb[tlbSlot(PageIdx)];
      uint8_t *Page;
      if (Entry.PageIdx == PageIdx) {
        Page = Entry.Page;
      } else {
        Page = getPage(Addr);
        Entry = TlbEntry{PageIdx, Page};
      }
      switch (Size) {
      case 8:
        std::memcpy(Page + Offset, &Value, 8);
        break;
      case 4:
        std::memcpy(Page + Offset, &Value, 4);
        break;
      case 2:
        std::memcpy(Page + Offset, &Value, 2);
        break;
      case 1:
        std::memcpy(Page + Offset, &Value, 1);
        break;
      default:
        std::memcpy(Page + Offset, &Value, Size);
      }
      return;
    }
    pokeSlow(Addr, Size, Value);
  }

  /// Copies \p Size bytes from \p Data to \p Addr.
  void pokeBytes(uint64_t Addr, const uint8_t *Data, uint64_t Size) {
    for (uint64_t Index = 0; Index != Size; ++Index)
      poke(Addr + Index, 1, Data[Index]);
  }

  /// Number of pages materialised so far (the image's footprint).
  size_t numPages() const { return Pages.size(); }

  void clear() {
    Pages.clear();
    Tlb.fill(TlbEntry());
  }

private:
  /// One cached page translation; PageIdx ~0 marks an empty slot.
  struct TlbEntry {
    uint64_t PageIdx = ~uint64_t(0);
    uint8_t *Page = nullptr;
  };
  static constexpr size_t TlbEntries = 256;

  /// Direct-mapped TLB slot of a page. Folding bits 12+ into the low byte
  /// separates the region bases (globals, heap, CCT heap and profiling
  /// stack all have zero low page bits, so `PageIdx & 255` alone would
  /// send the first page of each to slot 0), while consecutive pages of
  /// one region still take consecutive slots.
  static size_t tlbSlot(uint64_t PageIdx) {
    return static_cast<size_t>((PageIdx ^ (PageIdx >> 12)) & (TlbEntries - 1));
  }

  /// Page-straddling accesses decompose into byte accesses (each of which
  /// is within one page and takes the fast path above).
  uint64_t peekSlow(uint64_t Addr, unsigned Size) const {
    uint64_t Value = 0;
    for (unsigned Index = 0; Index != Size; ++Index)
      Value |= peek(Addr + Index, 1) << (8 * Index);
    return Value;
  }

  void pokeSlow(uint64_t Addr, unsigned Size, uint64_t Value) {
    for (unsigned Index = 0; Index != Size; ++Index)
      poke(Addr + Index, 1, (Value >> (8 * Index)) & 0xff);
  }

  const uint8_t *findPage(uint64_t Addr) const {
    auto It = Pages.find(Addr / PageBytes);
    return It == Pages.end() ? nullptr : It->second.get();
  }

  uint8_t *getPage(uint64_t Addr) {
    std::unique_ptr<uint8_t[]> &Page = Pages[Addr / PageBytes];
    if (!Page) {
      Page = std::make_unique<uint8_t[]>(PageBytes);
      std::memset(Page.get(), 0, PageBytes);
    }
    return Page.get();
  }

  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> Pages;
  /// Present pages only (mutable: a refill during a const peek does not
  /// change observable state).
  mutable std::array<TlbEntry, TlbEntries> Tlb;
};

} // namespace hw
} // namespace pp

#endif // PP_HW_MEMORYIMAGE_H
