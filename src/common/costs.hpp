#pragma once

#include <cstdint>

// Cycle-cost model for the simulated Pentium-III 1.1 GHz testbed.
//
// The headline constants are the paper's own measurements (Section 3.6 and
// Section 4.1 of Lam & Chiueh, DSN 2005); the per-IR-operation costs are the
// conventional latencies for a P6-class core. All costs are centralised here
// so benches and ablations can reason about them in one place.
namespace cash::costs {

// --- Paper-measured constants (Cash, Sections 3.6 / 4.1) -------------------

// One-time program start-up: call-gate installation + segment free-list init.
inline constexpr std::uint64_t kPerProgramSetup = 543;

// Segment allocation + LDT descriptor installation for one array (when the
// 3-entry recently-freed-segment cache misses and the call gate is taken).
inline constexpr std::uint64_t kPerArraySetup = 263;

// Hitting the user-space 3-entry segment cache: no kernel entry, just the
// free-list bookkeeping.
inline constexpr std::uint64_t kSegCacheHit = 10;

// Releasing a segment never enters the kernel (the entry is pushed onto the
// user-space free list / 3-entry cache).
inline constexpr std::uint64_t kPerArrayTeardown = 8;

// Loading a segment register (MOV %seg): per-array-use overhead. The paper
// reports 4 cycles and hoists these loads outside the outermost loop.
inline constexpr std::uint64_t kSegRegLoad = 4;

// Slim Cash call gate into cash_modify_ldt().
inline constexpr std::uint64_t kCallGate = 253;

// Stock Linux modify_ldt() system call.
inline constexpr std::uint64_t kModifyLdtSyscall = 781;

// Switching the LDTR to another LDT (the Section 3.4 alternative to the
// 8191-segment ceiling). LLDT is privileged, so this is a slim system call
// like the Cash gate plus the LLDT itself.
inline constexpr std::uint64_t kLdtSwitch = 282;

// Creating an additional LDT (allocate + register its descriptor): a full
// system call.
inline constexpr std::uint64_t kLdtCreate = 781;

// --- Multi-process scheduling costs (DESIGN.md §10) -------------------------

// One round-robin context switch on the simulated Linux 2.4 / P-III testbed:
// timer interrupt + schedule() + register/TSS state swap + the page-table
// switch (CR3 reload and its TLB refill tail), before any segmentation work.
inline constexpr std::uint64_t kContextSwitchBase = 1100;

// Re-pointing the LDTR at the incoming process's LDT during the switch
// (LLDT + descriptor fetch). Charged on every switch: under Cash every
// process has a live LDT, so the kernel can never skip the reload the way
// stock Linux does for LDT-less processes.
inline constexpr std::uint64_t kLdtrReload = 22;

// The full per-switch charge booked to the incoming process.
inline constexpr std::uint64_t kContextSwitch =
    kContextSwitchBase + kLdtrReload;

// --- Degraded-path costs (fault-injection layer, DESIGN.md §8) --------------

// When the Cash call gate bounces (injected contention), user space retries
// with a bounded exponential backoff: attempt k spins
// kGateBusyBackoffBase << (k-1) cycles before re-entering the gate, and
// after kGateBusyMaxRetries bounced attempts the allocation degrades to the
// unchecked global segment instead of blocking forever.
inline constexpr std::uint64_t kGateBusyBackoffBase = 32;
inline constexpr int kGateBusyMaxRetries = 4;

// --- Checking-strategy costs ------------------------------------------------

// BCC-style software bound check: 2 loads + 2 compares + 2 branches.
inline constexpr std::uint64_t kSoftwareBoundCheck = 6;

// x86 `bound` instruction on P6 (related-work ablation).
inline constexpr std::uint64_t kBoundInstruction = 7;

// Hardware (segment-limit) check: performed by the address-translation
// pipeline, zero additional cycles.
inline constexpr std::uint64_t kHardwareBoundCheck = 0;

// Extra cycles for the interval form of a software check (both ends of a
// [lo, hi] range instead of one address): one more compare + branch pair on
// the low bound. The elision pass emits these when it hoists a loop's
// per-iteration checks into one preheader check.
inline constexpr std::uint64_t kIntervalCheckExtra = 2;

// --- Per-IR-operation latencies (P6-class) ----------------------------------

inline constexpr std::uint64_t kAluOp = 1;        // add/sub/logic/compare
// Register-resident operations: scalar locals are register-allocated at the
// highest optimisation level, pointer-add folds into the x86 addressing
// mode, and small constants are immediates — all zero-cycle.
inline constexpr std::uint64_t kRegisterOp = 0;
inline constexpr std::uint64_t kMulOp = 4;        // imul / fmul
inline constexpr std::uint64_t kDivOp = 24;       // idiv / fdiv
inline constexpr std::uint64_t kLoadStore = 1;    // L1-hit memory op
inline constexpr std::uint64_t kBranch = 1;       // predicted branch
inline constexpr std::uint64_t kCallRet = 2;      // call or ret
inline constexpr std::uint64_t kMathBuiltin = 40; // sqrt/sin/cos/exp (fp unit)

// Fat-pointer bookkeeping: copying the extra word(s) on pointer assignment.
// Cash uses a 2-word pointer (1 extra word); BCC uses 3 words (2 extra).
inline constexpr std::uint64_t kExtraPtrWordCopy = 1;

// --- Static-cost accounting ------------------------------------------------
//
// Statically-known accounting deltas of one micro-op, one fused
// superinstruction, or one folded group (vm/decode.hpp). Fat-pointer word
// copies are counted as *events*, not cycles: their cycle cost depends on
// the machine's check mode (1, 2 or 0 extra words), so the engine multiplies
// by the mode's penalty at run time and one decoded image serves every
// configuration.
struct StaticCost {
  std::uint64_t cycles{0};     // into cycles (ptr-copy events excluded)
  std::uint64_t checking{0};   // into cycles + breakdown.checking
  std::uint64_t shadow{0};     // into shadow_cycles
  std::uint32_t ptr_events{0}; // fat-pointer copies (mode-dependent cycles)
  std::uint32_t hw_checks{0};
  std::uint32_t sw_checks{0};
  std::uint32_t calls{0};      // folded builtin calls
};

constexpr StaticCost& operator+=(StaticCost& a, const StaticCost& b) noexcept {
  a.cycles += b.cycles;
  a.checking += b.checking;
  a.shadow += b.shadow;
  a.ptr_events += b.ptr_events;
  a.hw_checks += b.hw_checks;
  a.sw_checks += b.sw_checks;
  a.calls += b.calls;
  return a;
}

constexpr StaticCost operator+(StaticCost a, const StaticCost& b) noexcept {
  a += b;
  return a;
}

// The three software-visible bound-check strategies (the hardware check is
// free: it rides the address-translation pipeline).
enum class BoundKind : std::uint8_t { kSoftware, kBoundInsn, kShadow };

// Cost of one bound check. The shadow-processor flavour charges the main
// CPU one address-queue store and books the 6-instruction derived check
// (plus the dequeue) on the shadow CPU. The interval form checks both ends
// of a [lo, hi] range: kIntervalCheckExtra more main-CPU cycles (shadow
// mode queues the second address instead and derives the extra compare on
// the shadow CPU).
constexpr StaticCost bound_check_cost(BoundKind kind,
                                      bool interval = false) noexcept {
  StaticCost c;
  c.sw_checks = 1;
  switch (kind) {
    case BoundKind::kSoftware:
      c.checking = kSoftwareBoundCheck + (interval ? kIntervalCheckExtra : 0);
      break;
    case BoundKind::kBoundInsn:
      c.checking = kBoundInstruction + (interval ? kIntervalCheckExtra : 0);
      break;
    case BoundKind::kShadow:
      c.checking = 1 + (interval ? 1 : 0);
      c.shadow = 2 + kSoftwareBoundCheck + (interval ? kIntervalCheckExtra : 0);
      break;
  }
  return c;
}

// Cost of one register-resident op (const/move/local load/store/ptr-add);
// `copies_ptr` books the mode-scaled fat-pointer word-copy event.
constexpr StaticCost register_op_cost(bool copies_ptr = false) noexcept {
  StaticCost c;
  c.cycles = kRegisterOp;
  c.ptr_events = copies_ptr ? 1 : 0;
  return c;
}

// Cost of one L1-hit memory access; `hw_checked` counts an access through
// an array segment (the check itself is free, kHardwareBoundCheck).
constexpr StaticCost load_store_cost(bool copies_ptr,
                                     bool hw_checked) noexcept {
  StaticCost c;
  c.cycles = kLoadStore;
  c.ptr_events = copies_ptr ? 1 : 0;
  c.hw_checks = hw_checked ? 1 : 0;
  return c;
}

constexpr StaticCost alu_cost(std::uint64_t cycles = kAluOp) noexcept {
  StaticCost c;
  c.cycles = cycles;
  return c;
}

} // namespace cash::costs
