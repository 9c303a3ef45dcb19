#pragma once

#include <cstdint>

#include "common/memory_map.hpp"
#include "mmu/mmu.hpp"
#include "passes/lower.hpp"
#include "runtime/segment_manager.hpp"

namespace cash::runtime {

// Layout of the 3-word per-object information structure (Section 3.2):
//   word 0: lower bound (first byte of the object)
//   word 1: upper bound (one past the last byte)
//   word 2: raw segment selector for the object's segment (0 = none)
inline constexpr std::uint32_t kInfoWords = 3;
inline constexpr std::uint32_t kInfoBytes = kInfoWords * 4;
static_assert(array_footprint(0) == kInfoBytes);
inline constexpr std::uint32_t kInfoLowerOff = 0;
inline constexpr std::uint32_t kInfoUpperOff = 4;
inline constexpr std::uint32_t kInfoSelectorOff = 8;

// True when arrays get an info structure in `mode`: the checked modes
// materialise the bounds; gcc and Electric Fence keep none.
constexpr bool gets_info_block(passes::CheckMode mode) noexcept {
  return mode == passes::CheckMode::kCash ||
         mode == passes::CheckMode::kBcc ||
         mode == passes::CheckMode::kBoundInsn ||
         mode == passes::CheckMode::kShadow;
}

// Fills/clears info structures and drives the SegmentManager when arrays are
// created and destroyed. Shared by global-array initialisation, function
// prologues/epilogues (local arrays), and cash_malloc/cash_free.
class ArrayRuntime {
 public:
  ArrayRuntime(mmu::Mmu& mmu, SegmentManager& segments,
               passes::CheckMode mode)
      : mmu_(&mmu), segments_(&segments), mode_(mode) {}

  // Sets up the array at [data, data+size): writes the info structure and,
  // in Cash mode, allocates a segment. Returns cycles charged.
  std::uint64_t setup(std::uint32_t info_addr, std::uint32_t data_addr,
                      std::uint32_t size);

  // Tears the array down (function epilogue / free()): releases the segment
  // in Cash mode. Returns cycles charged.
  std::uint64_t teardown(std::uint32_t info_addr);

  passes::CheckMode mode() const noexcept { return mode_; }

 private:
  mmu::Mmu* mmu_;
  SegmentManager* segments_;
  passes::CheckMode mode_;
};

} // namespace cash::runtime
