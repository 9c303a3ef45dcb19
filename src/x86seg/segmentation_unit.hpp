#pragma once

#include <array>
#include <cstdint>

#include "common/hot_inline.hpp"
#include "common/result.hpp"
#include "x86seg/descriptor_table.hpp"
#include "x86seg/selector.hpp"

namespace cash::x86seg {

// The six IA-32 segment registers.
enum class SegReg : std::uint8_t { kCs = 0, kSs, kDs, kEs, kFs, kGs };
inline constexpr int kNumSegRegs = 6;

const char* to_string(SegReg reg) noexcept;

enum class Access : std::uint8_t { kRead, kWrite, kExecute };

// One segment register: the visible selector plus the hidden part (the
// descriptor cache / shadow register, SDM Vol. 3 Section 3.4.3). Address
// translation uses only the hidden part — stale caches after a descriptor
// rewrite are faithfully reproduced unless the register is reloaded.
struct SegmentRegister {
  Selector selector;
  SegmentDescriptor cached; // hidden part
  bool valid{false};        // hidden part holds a usable descriptor

  // Fast-path word, derived from `cached` whenever the hidden part is
  // (re)filled — i.e. with exactly the lifetime of the hidden part, so a
  // descriptor-table rewrite stays invisible until the register is
  // reloaded, just like on real hardware. The common in-bounds expand-up
  // data access then needs only an access-mask test and two compares; all
  // other cases (expand-down, faults) re-run the full check pipeline.
  std::uint32_t fast_base{0};
  std::uint32_t fast_limit{0}; // effective (byte) limit, expand-up only
  std::uint8_t fast_access{0}; // bit per Access value: permitted kinds
  bool fast_expand_up{false};

  // Recomputes the fast-path word from the hidden part.
  void refresh_fast_path() noexcept;
};

// The segmentation stage of Figure 1: logical address (segment register,
// 32-bit offset) -> 32-bit linear address, with all protection checks the
// paper relies on (segment-limit check incl. granularity masking, type
// check, privilege check, null-selector check, descriptor-table limit
// check).
class SegmentationUnit {
 public:
  SegmentationUnit(DescriptorTable& gdt, DescriptorTable& ldt)
      : gdt_(&gdt), ldt_(&ldt) {}

  // Switches the active LDT (models an LLDT / LDTR rewrite).
  void set_ldt(DescriptorTable& ldt) noexcept { ldt_ = &ldt; }
  DescriptorTable& ldt() noexcept { return *ldt_; }
  DescriptorTable& gdt() noexcept { return *gdt_; }

  std::uint8_t cpl() const noexcept { return cpl_; }
  void set_cpl(std::uint8_t cpl) noexcept { cpl_ = cpl; }

  // MOV %reg, selector. Performs the descriptor fetch and protection checks
  // and fills the hidden part. Loading a null selector into a *data* segment
  // register succeeds (marking it unusable); loading one into CS or SS
  // faults, as does loading a non-present or privilege-violating descriptor.
  Status load(SegReg reg, Selector selector);

  const SegmentRegister& reg(SegReg reg) const noexcept {
    return regs_[static_cast<int>(reg)];
  }

  // Restores a previously saved register snapshot (visible + hidden part).
  // Models the save/restore Cash emits in prologues/epilogues of functions
  // that clobber a segment register (Section 3.7).
  void restore(SegReg reg, const SegmentRegister& saved) noexcept {
    regs_[static_cast<int>(reg)] = saved;
  }

  // Forms the linear address for an access of `size` bytes at `offset`
  // through `reg`, running the full protection pipeline. This is where the
  // Cash hardware bound check happens. The in-bounds expand-up case is an
  // inline mask test plus two overflow-free compares against the fast-path
  // word; everything else (expand-down segments, every fault, size 0)
  // falls back to the full pipeline, which also builds the fault detail
  // strings — no formatting cost on the hot path.
  Result<std::uint32_t> translate(SegReg reg, std::uint32_t offset,
                                  std::uint32_t size, Access access) const {
    std::uint32_t linear = 0;
    if (translate_fast(reg, offset, size, access, &linear)) {
      return linear;
    }
    return translate_slow(reg, offset, size, access);
  }

  // The fast path alone, with no Result construction: returns true and sets
  // *linear when the access hits the precomputed in-bounds expand-up case;
  // false means "run translate() for the full pipeline" (which may still
  // succeed, e.g. expand-down segments), not "fault".
  CASH_HOT_INLINE bool translate_fast(SegReg reg, std::uint32_t offset,
                                      std::uint32_t size, Access access,
                                      std::uint32_t* linear) const noexcept {
    const SegmentRegister& sr = regs_[static_cast<int>(reg)];
    if (sr.valid && sr.fast_expand_up && size != 0 &&
        ((sr.fast_access >> static_cast<unsigned>(access)) & 1U) != 0 &&
        offset <= sr.fast_limit && size - 1 <= sr.fast_limit - offset) {
      *linear = sr.fast_base + offset;
      return true;
    }
    return false;
  }

  // Number of segment-register loads performed (cost accounting).
  std::uint64_t load_count() const noexcept { return load_count_; }

 private:
  Result<std::uint32_t> translate_slow(SegReg reg, std::uint32_t offset,
                                       std::uint32_t size, Access access) const;

  DescriptorTable* gdt_;
  DescriptorTable* ldt_;
  std::array<SegmentRegister, kNumSegRegs> regs_{};
  std::uint8_t cpl_{3};
  std::uint64_t load_count_{0};
};

} // namespace cash::x86seg
