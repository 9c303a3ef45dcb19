#include "runtime/heap.hpp"

namespace cash::runtime {

namespace {
constexpr std::uint32_t align_up(std::uint32_t value, std::uint32_t align) {
  return (value + align - 1) & ~(align - 1);
}
} // namespace

CashHeap::Object CashHeap::allocate(std::uint32_t bytes) {
  ++stats_.malloc_calls;
  Object out;
  out.cycles = kMallocCycles;
  if (injector_ != nullptr &&
      injector_->should_inject(faultinject::FaultSite::kHeapAlloc)) {
    return out; // injected malloc failure: data stays 0
  }
  if (bytes == 0) {
    bytes = 4;
  }

  if (arrays_->mode() == passes::CheckMode::kEfence) {
    // Electric Fence: the object ends exactly at a page boundary and the
    // following page is an inaccessible guard page. The fit check runs in
    // 64 bits: a size near 4 GB (malloc(-4)) would wrap the page rounding
    // and the sums to small values.
    const std::uint64_t span64 =
        (std::uint64_t{bytes} + paging::kPageSize - 1) &
        ~std::uint64_t{paging::kPageSize - 1};
    const std::uint32_t base = align_up(next_, paging::kPageSize);
    if (base + span64 + paging::kPageSize > limit_) {
      return out; // out of simulated heap
    }
    const auto span = static_cast<std::uint32_t>(span64);
    const std::uint32_t data = base + span - bytes;
    const std::uint32_t guard_page = (base + span) >> paging::kPageShift;
    mmu_->page_table().map_range(base, span);
    mmu_->page_table().set_guard(guard_page, true);
    ++stats_.guard_pages;
    next_ = base + span + paging::kPageSize;
    out.data = data & ~3U; // word-align the handle (bytes%4==0 in MiniC)
    stats_.bytes_allocated += bytes;
    return out;
  }

  // Normal layout: [3-word info structure][data], both word-aligned.
  // Freed blocks of the same size are reused first, like any real malloc.
  std::uint32_t data = 0;
  const auto free_it = free_blocks_.find(bytes);
  if (free_it != free_blocks_.end() && !free_it->second.empty()) {
    data = free_it->second.back();
    free_it->second.pop_back();
  } else {
    const std::uint32_t info = align_up(next_, 8);
    data = info + kInfoBytes;
    if (std::uint64_t{data} + bytes > limit_) {
      return out; // out of simulated heap (64-bit: the sum must not wrap)
    }
    next_ = data + bytes;
  }
  const std::uint32_t info = data - kInfoBytes;
  stats_.bytes_allocated += bytes;
  object_size_[data] = bytes;
  out.data = data;

  const bool array_like = bytes > 4; // N > 1 (Section 1)
  switch (arrays_->mode()) {
    case passes::CheckMode::kNoCheck:
      break;
    case passes::CheckMode::kCash:
    case passes::CheckMode::kBcc:
    case passes::CheckMode::kBoundInsn:
    case passes::CheckMode::kShadow:
      if (array_like) {
        out.cycles += arrays_->setup(info, data, bytes);
        out.info = info;
      }
      break;
    case passes::CheckMode::kEfence:
      break; // handled above
  }
  return out;
}

std::uint64_t CashHeap::release(std::uint32_t data_addr) {
  ++stats_.free_calls;
  if (data_addr == 0) {
    return 1;
  }
  std::uint64_t cycles = 8; // allocator bookkeeping
  if (arrays_->mode() == passes::CheckMode::kCash) {
    cycles += arrays_->teardown(data_addr - kInfoBytes);
  }
  // Recycle the block (Electric Fence intentionally never does: freed
  // memory stays behind its guard).
  if (arrays_->mode() != passes::CheckMode::kEfence) {
    const auto size_it = object_size_.find(data_addr);
    if (size_it != object_size_.end()) {
      free_blocks_[size_it->second].push_back(data_addr);
      object_size_.erase(size_it);
    }
  }
  return cycles;
}

} // namespace cash::runtime
