#include "runtime/array_runtime.hpp"

#include <cassert>

namespace cash::runtime {

std::uint64_t ArrayRuntime::setup(std::uint32_t info_addr,
                                  std::uint32_t data_addr,
                                  std::uint32_t size) {
  using passes::CheckMode;
  if (!gets_info_block(mode_)) {
    return 0; // no info structure in the unchecked builds
  }

  std::uint64_t cycles = 3; // three word stores to fill the structure
  std::uint32_t selector_raw = 0;
  if (mode_ == CheckMode::kCash) {
    SegmentManager::Allocation alloc = segments_->allocate(data_addr, size);
    cycles += alloc.cycles;
    selector_raw = alloc.selector_word(); // (ldt_id << 16) | selector
  }
  Status s0 = mmu_->write32_linear(info_addr + kInfoLowerOff, data_addr);
  Status s1 = mmu_->write32_linear(info_addr + kInfoUpperOff,
                                   data_addr + size);
  Status s2 = mmu_->write32_linear(info_addr + kInfoSelectorOff, selector_raw);
  assert(s0.ok() && s1.ok() && s2.ok());
  (void)s0; (void)s1; (void)s2;
  return cycles;
}

std::uint64_t ArrayRuntime::teardown(std::uint32_t info_addr) {
  using passes::CheckMode;
  if (mode_ != CheckMode::kCash) {
    return 0;
  }
  Result<std::uint32_t> lower = mmu_->read32_linear(info_addr + kInfoLowerOff);
  Result<std::uint32_t> upper = mmu_->read32_linear(info_addr + kInfoUpperOff);
  Result<std::uint32_t> selector =
      mmu_->read32_linear(info_addr + kInfoSelectorOff);
  assert(lower.ok() && upper.ok() && selector.ok());
  const x86seg::Selector sel(static_cast<std::uint16_t>(selector.value()));
  const kernel::LdtId ldt_id = selector.value() >> 16;
  if (selector.value() == 0 || !sel.is_local()) {
    return 1; // global-segment fallback or unchecked object
  }
  return segments_->release(sel.index(), lower.value(),
                            upper.value() - lower.value(), ldt_id);
}

} // namespace cash::runtime
