#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/costs.hpp"
#include "common/stats_schema.hpp"
#include "ir/function.hpp"

// Pre-decoded micro-op image (DESIGN.md §7). At CompiledProgram
// construction every IR function is lowered once into a flat array of
// decoded micro-ops: a dense opcode enum, pre-resolved operand slots, the
// callee indices the front end resolved, and branch targets expressed as
// micro-op indices. The engine (decode.cpp) then dispatches through one
// jump table over this array instead of re-deriving everything per step
// from the IR.
//
// Straight-line runs of micro-ops whose cost is statically known are folded
// into *groups*: the group header carries precomputed aggregate cycle /
// check-count deltas, so the engine executes the members' semantics and
// charges the whole run with one add per stream. Micro-ops whose cost or
// control flow is data-dependent (segment-register loads, user calls,
// malloc/free, returns) stay itemized between groups.
//
// Each function has one slot per IR instruction plus its group headers
// (`plain`), and a copy of those slots (`fused`) that differs only in the
// first slot of each superinstruction run: that slot's opcode names a
// SUPER row of CASH_UOP_LIST, whose handler runs every constituent from its
// own slot with its own operands. The copies share one set of indices,
// groups and block entries, so a branch target, a faulting slot or a
// budget cut means the same thing whichever copy ran. The engine picks the
// copy per run from MachineConfig.enable_fusion. Hot traces (DESIGN.md §11)
// are spliced from the plain slots and tiled with the same rows.
//
// Member dispatch is computed-goto threaded on GCC/Clang with a portable
// switch fallback (see decode.cpp). The result is bit-transparent either
// way: cycles, breakdowns, counters, stats, faults and output are identical
// to the reference interpreter (tests/vm/decode_test.cpp).

namespace cash::vm {

// Builtins the simulator implements directly; the front end resolves each
// call site to one of these or to a user function (ir::CallSite).
using ir::Builtin;

// Cycles a builtin other than malloc and free charges, in both engines:
// the cycles column of CASH_IR_BUILTIN_LIST.
constexpr std::uint64_t builtin_cycles(Builtin builtin) noexcept {
  constexpr std::uint64_t kCycles[] = {
      0, // kNone
#define CASH_BUILTIN_CYCLES(name, spelling, cycles, ...) cycles,
      CASH_IR_BUILTIN_LIST(CASH_BUILTIN_CYCLES)
#undef CASH_BUILTIN_CYCLES
  };
  return kCycles[static_cast<std::size_t>(builtin)];
}

// The micro-op set, one row per opcode, in three kinds:
//
//   PLAIN(name)            a micro-op that runs as a group member. Its
//                          handler is generated from CASH_STEP_<name>, the
//                          one step (decode.cpp) that every handler running
//                          it shares.
//   SUPER(name, parts...)  a superinstruction: the plain micro-ops it
//                          covers, in slot order. Its handler is generated
//                          from the row: it runs each part's step at the
//                          part's own slot, so a part that faults leaves pc
//                          on its own slot and the cold paths charge it as
//                          an unfused run would. kBoundSw in a row stands
//                          for every bound check (they share one step).
//   OTHER(name, label)     group headers, trace bookkeeping and itemized
//                          micro-ops, with a hand-written handler label;
//                          m_corrupt for those that never run as members.
//
// The UOp enum, kSuperRows, the computed-goto dispatch table, the portable
// switch fallback and every member handler are expanded from this list, so
// a row is the whole definition of a superinstruction. One greedy
// longest-first matcher (decode.cpp) tiles spans of plain slots with the
// rows: each group's members at decode time, each formed trace when it is
// spliced. Only a trace has kGuardBranch slots, so rows that end in one
// match only there. A terminator (kJump, kBranch, kGuardBranch) may end a
// row but never sit inside one. static_cost stays hand-written: its cases
// are the cost model, and it sees only plain micro-ops.
//
// The sections, in order:
//   - kGroup, the group header: `imm` member micro-ops follow, `aux` is the
//     FoldedGroup index. Members are plain ops only; a terminator may
//     appear only as the last member.
//   - plain member micro-ops. kGuardBranch is trace-only: an interior
//     kBranch, imm != 0 when the trace follows the taken arm, target0 = the
//     off-trace exit micro-op index.
//   - kTraceLoop, a looping trace's tail: it retires the whole pass and
//     restarts at slot 0 without leaving the superblock (DESIGN.md §11).
//   - superinstructions, named after their parts: Ll/Sl = kLoadLocal/
//     kStoreLocal, Pa = kPtrAdd, Bd = a bound check, Ld = kLoad, G =
//     kGuardBranch, Bin/Un = kBin/kUn.
//   - itemized micro-ops: dynamic cost and/or control flow. kBlockEndError
//     is control falling off the end of a block (no terminator); it
//     reproduces the interpreter's "fell off the end of block ..." error,
//     with the block id in `symbol`.
#define CASH_UOP_LIST(PLAIN, SUPER, OTHER)                                   \
  OTHER(kGroup, m_corrupt)                                                   \
  PLAIN(kConstInt)                                                           \
  PLAIN(kConstFloat)                                                         \
  PLAIN(kMove)                                                               \
  PLAIN(kBin)                                                                \
  PLAIN(kUn)                                                                 \
  PLAIN(kLoad)                                                               \
  PLAIN(kStore)                                                              \
  PLAIN(kLoadLocal)                                                          \
  PLAIN(kStoreLocal)                                                         \
  PLAIN(kLoadGlobal)                                                         \
  PLAIN(kStoreGlobal)                                                        \
  PLAIN(kAddrLocal)                                                          \
  PLAIN(kAddrGlobal)                                                         \
  PLAIN(kPtrAdd)                                                             \
  PLAIN(kBoundSw)                                                            \
  PLAIN(kBoundBnd)                                                           \
  PLAIN(kBoundShadow)                                                        \
  PLAIN(kBuiltin) /* statically-costed builtin call */                       \
  PLAIN(kJump)                                                               \
  PLAIN(kBranch)                                                             \
  PLAIN(kGuardBranch)                                                        \
  OTHER(kTraceLoop, m_trace_loop)                                            \
  SUPER(kSuperLlBin, kLoadLocal, kBin)                                       \
  SUPER(kSuperLlBinBin, kLoadLocal, kBin, kBin)                              \
  SUPER(kSuperLlBinSl, kLoadLocal, kBin, kStoreLocal)                        \
  SUPER(kSuperLlBinBinSl, kLoadLocal, kBin, kBin, kStoreLocal)               \
  SUPER(kSuperLlBinBinG, kLoadLocal, kBin, kBin, kGuardBranch)               \
  SUPER(kSuperLlBinSlLlBin, kLoadLocal, kBin, kStoreLocal, kLoadLocal, kBin) \
  SUPER(kSuperLlBinSlLlBinG, kLoadLocal, kBin, kStoreLocal, kLoadLocal,      \
        kBin, kGuardBranch)                                                  \
  SUPER(kSuperBinSl, kBin, kStoreLocal)                                      \
  SUPER(kSuperBinG, kBin, kGuardBranch)                                      \
  SUPER(kSuperBinBin, kBin, kBin)                                            \
  SUPER(kSuperBinBinBin, kBin, kBin, kBin)                                   \
  SUPER(kSuperBinBinSl, kBin, kBin, kStoreLocal)                             \
  SUPER(kSuperBinPaLd, kBin, kPtrAdd, kLoad)                                 \
  SUPER(kSuperBinPaBdLd, kBin, kPtrAdd, kBoundSw, kLoad)                     \
  SUPER(kSuperPaLd, kPtrAdd, kLoad)                                          \
  SUPER(kSuperPaLdBin, kPtrAdd, kLoad, kBin)                                 \
  SUPER(kSuperPaBdLd, kPtrAdd, kBoundSw, kLoad)                              \
  SUPER(kSuperPaBdLdBin, kPtrAdd, kBoundSw, kLoad, kBin)                     \
  SUPER(kSuperUnBin, kUn, kBin)                                              \
  OTHER(kSegLoad, m_corrupt)                                                 \
  OTHER(kCallUser, m_corrupt)                                                \
  OTHER(kMalloc, m_corrupt)                                                  \
  OTHER(kFree, m_corrupt)                                                    \
  OTHER(kRet, m_corrupt)                                                     \
  OTHER(kBlockEndError, m_corrupt)

#define CASH_UOP_NONE(...)

enum class UOp : std::uint8_t {
#define CASH_UOP_ENUM(name, ...) name,
  CASH_UOP_LIST(CASH_UOP_ENUM, CASH_UOP_ENUM, CASH_UOP_ENUM)
#undef CASH_UOP_ENUM
  kCount, // sentinel: dispatch-table size
};

// One SUPER row: its opcode and the plain micro-ops it covers.
inline constexpr std::size_t kMaxSuperWidth = 6;
struct SuperRow {
  UOp op{UOp::kGroup};
  std::array<UOp, kMaxSuperWidth> parts{}; // then kGroup padding
  std::uint32_t width{0};                  // number of parts
};

// Every SUPER row of CASH_UOP_LIST, in list order.
inline constexpr auto kSuperRows = [] {
  using enum UOp;
  std::array rows{
#define CASH_UOP_ROW(name, ...) SuperRow{name, {__VA_ARGS__}},
      CASH_UOP_LIST(CASH_UOP_NONE, CASH_UOP_ROW, CASH_UOP_NONE)
#undef CASH_UOP_ROW
  };
  for (SuperRow& row : rows) {
    while (row.width < kMaxSuperWidth && row.parts[row.width] != kGroup) {
      ++row.width;
    }
  }
  return rows;
}();

// The step a plain slot runs, as a row names it: the three bound checks
// share one.
constexpr UOp step_op(UOp op) noexcept {
  return op == UOp::kBoundBnd || op == UOp::kBoundShadow ? UOp::kBoundSw : op;
}

// The row of superinstruction `op`; null for every other micro-op.
constexpr const SuperRow* super_row(UOp op) noexcept {
  for (const SuperRow& row : kSuperRows) {
    if (row.op == op) {
      return &row;
    }
  }
  return nullptr;
}

// One decoded micro-op. Wider than strictly necessary per opcode, but flat
// and trivially indexable — the engine's working set is this array plus the
// frame's register file. A superinstruction changes only the opcode of its
// first slot; every part keeps its own slot and operands.
struct MicroInstr {
  UOp op{UOp::kGroup};
  ir::Type type{ir::Type::kInt};
  std::uint8_t seg{0};        // kLoad/kStore/kSegLoad segment register
  bool rebased{false};        // kLoad/kStore through an array segment
  bool is_ptr{false};         // value carries the fat-pointer shadow word
  bool synthetic{false};      // lowering-inserted (affects static cost only)
  Builtin builtin{};          // kBuiltin
  ir::BinOp bin_op{ir::BinOp::kAdd};
  ir::UnOp un_op{ir::UnOp::kNeg};
  std::int32_t dst{ir::kNoReg};
  std::int32_t src0{ir::kNoReg};
  std::int32_t src1{ir::kNoReg};
  std::int32_t slot{-1};      // kLoadLocal/kStoreLocal/kAddrLocal
  std::int32_t symbol{-1};    // kLoadGlobal/kStoreGlobal/kAddrGlobal; block
                              // id for kBlockEndError
  std::uint32_t imm{0};       // kConstInt/kConstFloat payload bits; member
                              // count for kGroup
  std::uint32_t aux{0};       // FoldedGroup index for kGroup
  std::uint32_t target0{0};   // kJump/kBranch: taken micro-op index
  std::uint32_t target1{0};   // kBranch: fall-through micro-op index
  std::int32_t callee{-1};    // kCallUser: DecodedProgram function index,
                              // -1 when the callee does not exist
  const ir::Instr* src{nullptr}; // source instruction (cold paths: fault
                                 // context, call argument list)
};

// Statically-known accounting deltas of one micro-op / one folded group
// (defined in common/costs.hpp next to the constants it aggregates).
using StaticCost = costs::StaticCost;

// Note: `checking` cycles are charged into both `cycles` and the checking
// breakdown by the engine, matching the interpreter's double booking.
// Superinstructions have no cost of their own: every charge is read from
// the plain slots (tests/vm/static_cost_test.cpp pins them to costs.hpp).
StaticCost static_cost(const MicroInstr& u) noexcept;

struct FoldedGroup {
  std::uint32_t count{0}; // member IR instructions, one slot each
  StaticCost cost;
};

// A function's plain slots: one micro-op per IR instruction, plus group
// headers. Group headers, itemized ops, block entries and branch targets
// are all slot indices, which the fused copy shares.
struct UopStream {
  std::vector<MicroInstr> uops;
  std::vector<FoldedGroup> groups;
  std::vector<std::uint32_t> block_entry; // block id -> micro-op index
};

// Static fusion coverage of a function / program. Deterministic: produced
// entirely at decode time, independent of inputs or machine config.
struct FusionStats {
  std::uint64_t fused_uops{0};      // superinstructions emitted
  std::uint64_t fused_instrs{0};    // IR instructions covered by them
  std::uint64_t foldable_instrs{0}; // total group-member IR instructions
  double hit_rate() const noexcept {
    return foldable_instrs == 0
               ? 0.0
               : static_cast<double>(fused_instrs) /
                     static_cast<double>(foldable_instrs);
  }
};

#define CASH_FUSION_STATS_FIELDS(X, HOST) \
  X(fused_uops) X(fused_instrs) X(foldable_instrs)
CASH_STATS_SCHEMA(FusionStats, CASH_FUSION_STATS_FIELDS)
constexpr FusionStats& operator+=(FusionStats& a, const FusionStats& b) {
  return stats::add_fields(a, b);
}

struct DecodedFunction {
  const ir::Function* fn{nullptr};
  UopStream plain;
  std::vector<MicroInstr> fused; // plain.uops with superinstruction
                                 // opcodes in the first slot of each run
  FusionStats stats;
  bool ok{false}; // decoded cleanly (malformed IR falls back to the
                  // interpreter for the whole module)
};

// True when the engine was compiled with computed-goto threaded dispatch
// (GCC/Clang labels-as-values); false means the portable switch fallback.
bool threaded_dispatch_enabled() noexcept;

class DecodedProgram {
 public:
  explicit DecodedProgram(const ir::Module& module);

  // True when every function decoded cleanly. A partially decodable module
  // is never executed fast: interpreter fallback keeps legacy behaviour —
  // including legacy failure modes — byte-for-byte.
  bool ok() const noexcept { return ok_; }

  const ir::Module& module() const noexcept { return *module_; }

  const std::vector<DecodedFunction>& functions() const noexcept {
    return functions_;
  }

  // Aggregate fusion coverage across every cleanly decoded function.
  FusionStats fusion_stats() const noexcept {
    FusionStats total;
    for (const DecodedFunction& f : functions_) {
      if (f.ok) {
        total += f.stats;
      }
    }
    return total;
  }

 private:
  const ir::Module* module_;
  std::vector<DecodedFunction> functions_; // parallel to module->functions
  bool ok_{false};
};

} // namespace cash::vm
