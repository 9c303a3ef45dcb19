#pragma once

#include <cstdint>

#include "common/hot_inline.hpp"
#include "common/result.hpp"
#include "paging/page_table.hpp"
#include "paging/physical_memory.hpp"
#include "x86seg/segmentation_unit.hpp"

namespace cash::mmu {

// The full Figure 1 pipeline: logical address -> (segmentation unit, with
// segment-limit checks) -> linear address -> (two-level page table) ->
// physical address -> byte store. All Cash hardware bound checks surface
// here as #GP faults from the segmentation stage.
class Mmu {
 public:
  Mmu(x86seg::SegmentationUnit& seg, paging::PageTable& pages,
      paging::PhysicalMemory& memory)
      : seg_(&seg), pages_(&pages), memory_(&memory), tlb_(&pages.tlb()) {}

  x86seg::SegmentationUnit& segmentation() noexcept { return *seg_; }
  paging::PageTable& page_table() noexcept { return *pages_; }

  // The software TLB between this MMU and the page table: every in-page
  // access probes it first and only walks the page table on a miss.
  // Disable (page_table().tlb().set_enabled(false)) to force every access
  // through the full walk; results must be bit-identical either way.
  const paging::TlbStats& tlb_stats() const noexcept { return tlb_->stats(); }

  // Segment-relative word access (the VM's data path). The common case —
  // an in-bounds expand-up segment and an in-page word whose page the TLB
  // holds — is inline here, so both engines run it without a call; any
  // other access (segment fallback, TLB miss, a word straddling two pages,
  // a fault) goes to the out-of-line slow path.
  CASH_HOT_INLINE Result<std::uint32_t> read32(x86seg::SegReg reg,
                                               std::uint32_t offset) {
    ++access_count_;
    std::uint32_t lin = 0;
    if (seg_->translate_fast(reg, offset, 4, x86seg::Access::kRead, &lin)) {
      if (const paging::TlbEntry* e = cached_word(lin, false, true)) {
        return memory_->read32(phys_of(*e, lin));
      }
    }
    return read32_slow(reg, offset);
  }
  CASH_HOT_INLINE Status write32(x86seg::SegReg reg, std::uint32_t offset,
                                 std::uint32_t value) {
    ++access_count_;
    std::uint32_t lin = 0;
    if (seg_->translate_fast(reg, offset, 4, x86seg::Access::kWrite, &lin)) {
      if (const paging::TlbEntry* e = cached_word(lin, true, true)) {
        memory_->write32(phys_of(*e, lin), value);
        return {};
      }
    }
    return write32_slow(reg, offset, value);
  }
  Result<std::uint8_t> read8(x86seg::SegReg reg, std::uint32_t offset);
  Status write8(x86seg::SegReg reg, std::uint32_t offset, std::uint8_t value);

  // Linear-address access, bypassing segmentation (used by the simulated
  // kernel and the runtime's trusted bookkeeping, which run with a flat
  // view). Pages are still consulted; the TLB-hit case is inline as above.
  CASH_HOT_INLINE Result<std::uint32_t> read32_linear(std::uint32_t linear) {
    if (const paging::TlbEntry* e = cached_word(linear, false, false)) {
      return memory_->read32(phys_of(*e, linear));
    }
    return read32_paged(linear, false);
  }
  CASH_HOT_INLINE Status write32_linear(std::uint32_t linear,
                                        std::uint32_t value) {
    if (const paging::TlbEntry* e = cached_word(linear, true, false)) {
      memory_->write32(phys_of(*e, linear), value);
      return {};
    }
    return write32_paged(linear, value, false);
  }

  std::uint64_t access_count() const noexcept { return access_count_; }

  // Snapshot support: rewinds the access counter (vm/snapshot.hpp).
  void set_access_count(std::uint64_t count) noexcept {
    access_count_ = count;
  }

 private:
  static constexpr std::uint32_t kPageMask = paging::kPageSize - 1;

  static constexpr std::uint32_t phys_of(const paging::TlbEntry& e,
                                         std::uint32_t linear) noexcept {
    return (e.frame << paging::kPageShift) | (linear & kPageMask);
  }

  // The TLB entry serving an in-page word access, counted as a hit; null
  // when the word straddles a page or the TLB misses. The slow paths probe
  // again and count the miss, so each access counts once, hit or miss.
  CASH_HOT_INLINE const paging::TlbEntry* cached_word(
      std::uint32_t linear, bool write, bool user_mode) noexcept {
    if ((linear & kPageMask) > paging::kPageSize - 4) {
      return nullptr;
    }
    return tlb_->hit(linear >> paging::kPageShift, write, user_mode);
  }

  // Slow paths: the full segmentation stage, then the paged word access.
  Result<std::uint32_t> read32_slow(x86seg::SegReg reg, std::uint32_t offset);
  Status write32_slow(x86seg::SegReg reg, std::uint32_t offset,
                      std::uint32_t value);
  // The paging stage of a word access: TLB probe, page walk on a miss, and
  // the byte-by-byte path for a word that straddles two pages.
  Result<std::uint32_t> read32_paged(std::uint32_t linear, bool user_mode);
  Status write32_paged(std::uint32_t linear, std::uint32_t value,
                       bool user_mode);

  x86seg::SegmentationUnit* seg_;
  paging::PageTable* pages_;
  paging::PhysicalMemory* memory_;
  paging::Tlb* tlb_; // owned by pages_
  std::uint64_t access_count_{0};
};

} // namespace cash::mmu
