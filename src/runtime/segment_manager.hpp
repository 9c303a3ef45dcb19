#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/costs.hpp"
#include "common/stats_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "kernel/kernel_sim.hpp"

namespace cash::runtime {

// User-space segment bookkeeping (Section 3.6): a free-LDT-entry list kept
// entirely in user space, a 3-entry cache of the most recently freed
// segments (matched by base and limit so a hot function's local arrays skip
// the kernel), and — once every entry is live — either the global-segment
// fallback (the paper's prototype) or additional LDTs with LDTR switching
// (the Section 3.4 alternative, enabled by max_ldts > 1).
class SegmentManager {
 public:
  static constexpr int kCacheEntries = 3;
  static constexpr std::uint16_t kGlobalSegmentIndex = 0xFFFF; // sentinel

  // The optional injector drives the kSegAllocate (force LDT-exhaustion →
  // global fallback) and kSegCacheProbe (force 3-entry cache miss) sites.
  // Gate-busy faults surfaced by the kernel are absorbed here with a bounded
  // retry/backoff loop (costs::kGateBusyBackoffBase / kGateBusyMaxRetries).
  SegmentManager(kernel::KernelSim& kernel, kernel::Pid pid, int max_ldts = 1,
                 faultinject::FaultInjector* injector = nullptr);

  // Program start-up: installs the call gate and builds the free list.
  // Returns the cycles charged (the paper's 543-cycle per-program set-up).
  std::uint64_t initialize();

  struct Allocation {
    std::uint16_t ldt_index{kGlobalSegmentIndex};
    kernel::LdtId ldt_id{0};
    x86seg::Selector selector;   // LDT selector, or the flat global segment
    std::uint64_t cycles{0};
    bool cache_hit{false};
    bool global_fallback{false};

    // Packed form stored in the info structure's third word: the LDT id in
    // the (otherwise unused) upper 16 bits, the selector in the lower 16.
    std::uint32_t selector_word() const noexcept {
      return global_fallback
                 ? 0
                 : (static_cast<std::uint32_t>(ldt_id) << 16) | selector.raw();
    }
  };

  // Allocates a segment covering [base, base+size). Consults the 3-entry
  // cache first; on miss takes the Cash call gate into the kernel.
  Allocation allocate(std::uint32_t base, std::uint32_t size);

  // Releases a segment: never enters the kernel — the entry goes into the
  // cache (evicting the oldest cached entry onto its free list).
  // Returns cycles charged.
  std::uint64_t release(std::uint16_t ldt_index, std::uint32_t base,
                        std::uint32_t size, kernel::LdtId ldt_id = 0);

  struct Stats {
    std::uint64_t alloc_requests{0};
    std::uint64_t cache_hits{0};
    std::uint64_t kernel_allocs{0};   // allocations that took the call gate
    std::uint64_t releases{0};
    std::uint64_t global_fallbacks{0};
    std::uint64_t extra_ldts_created{0};
    std::uint64_t gate_busy_retries{0}; // bounced lcalls that were retried
    // Installs refused inside the kernel because the shared (multi-tenant)
    // LDT slot budget was exhausted; each one also counts as a
    // global_fallback — the request degrades to the unchecked segment.
    std::uint64_t budget_fallbacks{0};
    std::uint32_t segments_in_use{0};
    std::uint32_t peak_segments{0};

    bool operator==(const Stats&) const = default;
  };
#define CASH_SEGMENT_STATS_FIELDS(X, HOST)                                \
  X(alloc_requests) X(cache_hits) X(kernel_allocs) X(releases)            \
  X(global_fallbacks) X(extra_ldts_created) X(gate_busy_retries)          \
  X(budget_fallbacks) X(segments_in_use) X(peak_segments)
  const Stats& stats() const noexcept { return stats_; }

  bool initialized() const noexcept { return initialized_; }
  int max_ldts() const noexcept { return max_ldts_; }

 private:
  struct CachedSegment {
    std::uint16_t ldt_index;
    kernel::LdtId ldt_id;
    std::uint32_t base;
    std::uint32_t size;
  };

  // Takes a free (ldt, index) pair, growing into a new LDT if permitted.
  // Returns false when truly exhausted. Adds any kernel cycles to *cycles.
  bool take_free_entry(kernel::LdtId& ldt_id, std::uint16_t& index,
                       std::uint64_t* cycles);

  kernel::KernelSim* kernel_;
  kernel::Pid pid_;
  int max_ldts_;
  faultinject::FaultInjector* injector_;
  bool initialized_{false};
  // Per-LDT user-space free lists ([0] = primary).
  std::vector<std::vector<std::uint16_t>> free_lists_;
  std::vector<CachedSegment> cache_;     // most recent first, <= 3 entries
  Stats stats_;
};
CASH_STATS_SCHEMA(SegmentManager::Stats, CASH_SEGMENT_STATS_FIELDS)

} // namespace cash::runtime
