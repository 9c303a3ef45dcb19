#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "paging/page_table.hpp"
#include "runtime/array_runtime.hpp"

namespace cash::runtime {

// The simulated malloc/free. Cash layers its info structure and segment on
// top of the allocator without changing placement (Section 3.9: no extra
// fragmentation); the Electric-Fence mode instead pads each object so it
// ends exactly at a page boundary and plants a guard page after it.
class CashHeap {
 public:
  CashHeap(mmu::Mmu& mmu, ArrayRuntime& arrays, std::uint32_t heap_base,
           std::uint32_t heap_limit)
      : mmu_(&mmu), arrays_(&arrays), next_(heap_base), limit_(heap_limit) {}

  struct Object {
    std::uint32_t data{0};   // 0 = out of memory
    std::uint32_t info{0};   // 0 = no bound metadata
    std::uint64_t cycles{0}; // allocator + segment set-up cost
  };

  Object allocate(std::uint32_t bytes);
  std::uint64_t release(std::uint32_t data_addr);

  // Optional deterministic fault injection (owned by the machine). A
  // kHeapAlloc fire makes allocate() report out-of-memory (data == 0), which
  // the interpreter surfaces as a structured kResourceExhausted fault.
  void set_fault_injector(faultinject::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  struct Stats {
    std::uint64_t malloc_calls{0};
    std::uint64_t free_calls{0};
    std::uint64_t bytes_allocated{0};
    std::uint64_t guard_pages{0};
  };
#define CASH_HEAP_STATS_FIELDS(X, HOST) \
  X(malloc_calls) X(free_calls) X(bytes_allocated) X(guard_pages)
  const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint64_t kMallocCycles = 30; // allocator bookkeeping

  mmu::Mmu* mmu_;
  ArrayRuntime* arrays_;
  std::uint32_t next_;
  std::uint32_t limit_;
  faultinject::FaultInjector* injector_{nullptr};
  Stats stats_;
  // Allocator metadata (malloc's hidden header, kept host-side): object
  // sizes and exact-size free lists so freed blocks are reused — which is
  // what lets the 3-entry segment cache serve repeated malloc/free pairs.
  std::map<std::uint32_t, std::uint32_t> object_size_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_blocks_;
};
CASH_STATS_SCHEMA(CashHeap::Stats, CASH_HEAP_STATS_FIELDS)

} // namespace cash::runtime
