#include "mmu/mmu.hpp"

namespace cash::mmu {

using x86seg::Access;
using x86seg::SegReg;

Result<std::uint32_t> Mmu::read32_slow(SegReg reg, std::uint32_t offset) {
  Result<std::uint32_t> linear = seg_->translate(reg, offset, 4, Access::kRead);
  if (!linear.ok()) {
    return linear.fault();
  }
  return read32_paged(linear.value(), /*user_mode=*/true);
}

Status Mmu::write32_slow(SegReg reg, std::uint32_t offset,
                         std::uint32_t value) {
  Result<std::uint32_t> linear =
      seg_->translate(reg, offset, 4, Access::kWrite);
  if (!linear.ok()) {
    return linear.fault();
  }
  return write32_paged(linear.value(), value, /*user_mode=*/true);
}

Result<std::uint8_t> Mmu::read8(SegReg reg, std::uint32_t offset) {
  ++access_count_;
  std::uint32_t lin = 0;
  if (!seg_->translate_fast(reg, offset, 1, Access::kRead, &lin)) {
    Result<std::uint32_t> linear =
        seg_->translate(reg, offset, 1, Access::kRead);
    if (!linear.ok()) {
      return linear.fault();
    }
    lin = linear.value();
  }
  if (const paging::TlbEntry* e = tlb_->probe(
          lin >> paging::kPageShift, /*write=*/false, /*user_mode=*/true)) {
    return memory_->read8(phys_of(*e, lin));
  }
  pages_->map_range(lin, 1);
  Result<std::uint32_t> phys =
      pages_->translate(lin, 1, /*write=*/false, /*user_mode=*/true);
  if (!phys.ok()) {
    return phys.fault();
  }
  return memory_->read8(phys.value());
}

Status Mmu::write8(SegReg reg, std::uint32_t offset, std::uint8_t value) {
  ++access_count_;
  std::uint32_t lin = 0;
  if (!seg_->translate_fast(reg, offset, 1, Access::kWrite, &lin)) {
    Result<std::uint32_t> linear =
        seg_->translate(reg, offset, 1, Access::kWrite);
    if (!linear.ok()) {
      return linear.fault();
    }
    lin = linear.value();
  }
  if (const paging::TlbEntry* e = tlb_->probe(
          lin >> paging::kPageShift, /*write=*/true, /*user_mode=*/true)) {
    memory_->write8(phys_of(*e, lin), value);
    return {};
  }
  pages_->map_range(lin, 1);
  Result<std::uint32_t> phys =
      pages_->translate(lin, 1, /*write=*/true, /*user_mode=*/true);
  if (!phys.ok()) {
    return phys.fault();
  }
  memory_->write8(phys.value(), value);
  return {};
}

Result<std::uint32_t> Mmu::read32_paged(std::uint32_t linear,
                                        bool user_mode) {
  if ((linear & kPageMask) <= paging::kPageSize - 4) {
    if (const paging::TlbEntry* e =
            tlb_->probe(linear >> paging::kPageShift, /*write=*/false,
                        user_mode)) {
      return memory_->read32(phys_of(*e, linear));
    }
    pages_->map_range(linear, 4);
    Result<std::uint32_t> phys =
        pages_->translate(linear, 4, /*write=*/false, user_mode);
    if (!phys.ok()) {
      return phys.fault();
    }
    return memory_->read32(phys.value());
  }
  // Word straddles a page boundary: frames are not physically contiguous,
  // so compose the word byte by byte.
  pages_->map_range(linear, 4);
  std::uint32_t value = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    Result<std::uint32_t> phys =
        pages_->translate(linear + i, 1, /*write=*/false, user_mode);
    if (!phys.ok()) {
      return phys.fault();
    }
    value |= static_cast<std::uint32_t>(memory_->read8(phys.value()))
             << (8 * i);
  }
  return value;
}

Status Mmu::write32_paged(std::uint32_t linear, std::uint32_t value,
                          bool user_mode) {
  if ((linear & kPageMask) <= paging::kPageSize - 4) {
    if (const paging::TlbEntry* e =
            tlb_->probe(linear >> paging::kPageShift, /*write=*/true,
                        user_mode)) {
      memory_->write32(phys_of(*e, linear), value);
      return {};
    }
    pages_->map_range(linear, 4);
    Result<std::uint32_t> phys =
        pages_->translate(linear, 4, /*write=*/true, user_mode);
    if (!phys.ok()) {
      return phys.fault();
    }
    memory_->write32(phys.value(), value);
    return {};
  }
  pages_->map_range(linear, 4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    Result<std::uint32_t> phys =
        pages_->translate(linear + i, 1, /*write=*/true, user_mode);
    if (!phys.ok()) {
      return phys.fault();
    }
    memory_->write8(phys.value(), static_cast<std::uint8_t>(value >> (8 * i)));
  }
  return {};
}

} // namespace cash::mmu
