#pragma once

#include <array>
#include <cstdint>

#include "common/hot_inline.hpp"
#include "common/stats_schema.hpp"

namespace cash::paging {

// Host-side TLB statistics. These describe simulator implementation
// behaviour only — the simulated cycle model never reads them, so a run
// with the TLB disabled produces bit-identical RunResult cycles/counters.
struct TlbStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t flushes{0};
  std::uint64_t invalidations{0};
};
#define CASH_TLB_STATS_FIELDS(X, HOST) \
  X(hits) X(misses) X(flushes) X(invalidations)
CASH_STATS_SCHEMA(TlbStats, CASH_TLB_STATS_FIELDS)

struct TlbEntry {
  static constexpr std::uint32_t kInvalidTag = 0xFFFFFFFFU;
  std::uint32_t tag{kInvalidTag}; // linear page number (valid tags < 2^20)
  std::uint32_t frame{0};
  bool writable{false};
  bool user{false};
};

// Direct-mapped software TLB caching successful page-table walks: linear
// page -> (frame, PTE protection bits). The hot path of every simulated
// memory access becomes one array index plus a tag compare; misses fall
// back to the full two-level walk in PageTable::translate, which refills
// the entry. Correctness contract: any PageTable mutation that could make
// a cached entry stale (map_page, set_guard, unmap) must invalidate it —
// guard pages and protection changes then fault exactly as in the uncached
// walk. Guard pages and faulting walks are never cached.
class Tlb {
 public:
  static constexpr std::uint32_t kEntries = 256;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept {
    if (enabled_ && !enabled) {
      flush();
    }
    enabled_ = enabled;
  }

  // Returns the entry when the page is cached with sufficient permissions
  // for the access; nullptr on miss (including permission mismatches, which
  // must re-run the full walk to raise the architectural fault).
  const TlbEntry* probe(std::uint32_t page, bool write,
                        bool user_mode) noexcept {
    if (!enabled_) {
      return nullptr;
    }
    const TlbEntry* e = hit(page, write, user_mode);
    if (e == nullptr) {
      ++stats_.misses;
    }
    return e;
  }

  // probe() that counts only a hit: the MMU's inlined hit path. Its caller
  // sends a miss on to a slow path whose probe() counts it, so every access
  // is still counted once. Needs no enabled() test: a disabled TLB holds
  // no valid entry (set_enabled(false) flushes, fill() is then a no-op).
  CASH_HOT_INLINE const TlbEntry* hit(std::uint32_t page, bool write,
                                      bool user_mode) noexcept {
    const TlbEntry& e = entries_[page & (kEntries - 1)];
    if (e.tag == page && (!write || e.writable) && (!user_mode || e.user)) {
      ++stats_.hits;
      return &e;
    }
    return nullptr;
  }

  void fill(std::uint32_t page, std::uint32_t frame, bool writable,
            bool user) noexcept {
    if (!enabled_) {
      return;
    }
    entries_[page & (kEntries - 1)] = TlbEntry{page, frame, writable, user};
  }

  void invalidate_page(std::uint32_t page) noexcept {
    TlbEntry& e = entries_[page & (kEntries - 1)];
    if (e.tag == page) {
      e.tag = TlbEntry::kInvalidTag;
      ++stats_.invalidations;
    }
  }

  void flush() noexcept {
    entries_.fill(TlbEntry{});
    ++stats_.flushes;
  }

  const TlbStats& stats() const noexcept { return stats_; }

 private:
  std::array<TlbEntry, kEntries> entries_{};
  TlbStats stats_;
  bool enabled_{true};
};

} // namespace cash::paging
