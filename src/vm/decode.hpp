#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/costs.hpp"
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
// Each function carries two member streams over the same groups:
//
//   plain — one micro-op per IR instruction, exactly the PR-5 layout; and
//   fused — a superinstruction stream where dependent pairs/triples inside
//           a group (local-load+bin+local-store, ptr-add(+bound)+load,
//           compare+branch) are merged into single fused micro-ops with
//           pre-summed static costs.
//
// The engine picks a stream per run from MachineConfig.enable_fusion, so
// one decoded image serves every configuration. Member dispatch is
// computed-goto threaded on GCC/Clang with a portable switch fallback (see
// decode.cpp). The result is bit-transparent either way: cycles,
// breakdowns, counters, stats, faults and output are identical to the
// reference interpreter (tests/vm/decode_test.cpp).

namespace cash::vm {

// Builtins the simulator implements directly; the front end resolves each
// call site to one of these or to a user function (ir::CallSite).
using ir::Builtin;

// Cycles a builtin other than malloc and free charges, in both engines.
constexpr std::uint64_t builtin_cycles(Builtin builtin) noexcept {
  switch (builtin) {
    case Builtin::kSqrt:
    case Builtin::kSin:
    case Builtin::kCos:
    case Builtin::kExp:
    case Builtin::kLog:
    case Builtin::kPow:
      return costs::kMathBuiltin;
    case Builtin::kFabs:
    case Builtin::kFloor:
    case Builtin::kAbs:
      return costs::kAluOp;
    case Builtin::kPrintInt:
    case Builtin::kPrintFloat:
      return 10;
    case Builtin::kRand:
      return 5;
    case Builtin::kSrand:
      return 2;
    default:
      return 0;
  }
}

// The micro-op set, one row per opcode: X(name, width, label).
//
//   name   the UOp enumerator.
//   width  IR instructions the micro-op covers (uop_width): 1 for plain
//          micro-ops, 2 or 3 for fused superinstructions. A trace peephole
//          counts only its first slot, because each constituent after it
//          keeps its own slot; kTraceLoop is bookkeeping and covers none.
//   label  its member handler in execute_decoded (decode.cpp). Group
//          headers and itemized micro-ops never run as group members and
//          map to m_corrupt.
//
// The UOp enum, uop_width, the computed-goto dispatch table and the
// portable switch fallback are all expanded from this list, so a row whose
// label has no handler fails to compile under either dispatch. static_cost
// stays hand-written: its cases are the cost model.
//
// The sections, in order:
//   - kGroup, the group header: `imm` member micro-ops follow, `aux` is the
//     FoldedGroup index. Members are foldable ops only; a terminator may
//     appear only as the last member.
//   - foldable micro-ops, which only ever appear inside a group.
//   - fused superinstructions: fused stream only, built at decode time by
//     merging dependent constituents inside one group (try_fuse in
//     decode.cpp). Their patterns, in list order: a scalar local load + a
//     bin reading it; a bin + the scalar local store of its result; the
//     two around one bin; a compare + the branch on its result (a
//     terminator); a ptr-add + the load through it, without or with a
//     bound check between them.
//   - trace-only micro-ops: superblock streams built at run time by the
//     hot-trace engine (DESIGN.md §11), never in the decoded plain/fused
//     streams. A guard is an interior branch: imm != 0 when the trace
//     follows the taken arm, target0 = the off-trace exit micro-op index.
//     kTraceLoop is a looping trace's tail: it retires the whole pass and
//     restarts at micro-op 0 without leaving the superblock. The
//     kTrace* peepholes combine ops the straight-line superblock puts side
//     by side (across member/terminator and spliced-block boundaries, which
//     the block-local fusion pass cannot see). Only the FIRST slot's opcode
//     is rewritten; the other constituents stay in the following slots
//     with their own operands and block_of/plain_done entries, so a
//     combined handler faults by advancing pc to the faulting slot and the
//     cold-path accounting needs no new bookkeeping. A peephole's name
//     lists its constituents: LoadBin is kFusedLoadLocalBin, LoadBinStore
//     is kFusedLoadBinStore, PtrAdd[Bound]Load is kFusedPtrAdd[Bound]Load,
//     BinStoreLocal is kFusedBinStoreLocal, Guard[Cmp] is the block's
//     guard terminator, and Bin/Un/Store/Bound are the plain micro-ops.
//   - itemized micro-ops: dynamic cost and/or control flow. kBlockEndError
//     is control falling off the end of a block (no terminator); it
//     reproduces the interpreter's "fell off the end of block ..." error,
//     with the block id in `symbol`.
#define CASH_UOP_LIST(X)                                                     \
  X(kGroup, 1, m_corrupt)                                                    \
  X(kConstInt, 1, m_const)                                                   \
  X(kConstFloat, 1, m_const)                                                 \
  X(kMove, 1, m_move)                                                        \
  X(kBin, 1, m_bin)                                                          \
  X(kUn, 1, m_un)                                                            \
  X(kLoad, 1, m_load)                                                        \
  X(kStore, 1, m_store)                                                      \
  X(kLoadLocal, 1, m_load_local)                                             \
  X(kStoreLocal, 1, m_store_local)                                           \
  X(kLoadGlobal, 1, m_load_global)                                           \
  X(kStoreGlobal, 1, m_store_global)                                         \
  X(kAddrLocal, 1, m_addr_local)                                             \
  X(kAddrGlobal, 1, m_addr_global)                                           \
  X(kPtrAdd, 1, m_ptr_add)                                                   \
  X(kBoundSw, 1, m_bound)                                                    \
  X(kBoundBnd, 1, m_bound)                                                   \
  X(kBoundShadow, 1, m_bound)                                                \
  X(kBuiltin, 1, m_builtin) /* statically-costed builtin call */             \
  X(kJump, 1, m_jump)                                                        \
  X(kBranch, 1, m_branch)                                                    \
  /* fused: */                                                               \
  X(kFusedLoadLocalBin, 2, m_fused_load_local_bin)                           \
  X(kFusedBinStoreLocal, 2, m_fused_bin_store_local)                         \
  X(kFusedLoadBinStore, 3, m_fused_load_bin_store)                           \
  X(kFusedCmpBranch, 2, m_fused_cmp_branch)                                  \
  X(kFusedPtrAddLoad, 2, m_fused_ptr_add_load)                               \
  X(kFusedPtrAddBoundLoad, 3, m_fused_ptr_add_bound_load)                    \
  /* trace-only: */                                                          \
  X(kGuardBranch, 1, m_guard_branch) /* interior kBranch */                  \
  X(kGuardCmpBranch, 2, m_guard_cmp_branch) /* interior kFusedCmpBranch */   \
  X(kTraceLoop, 0, m_trace_loop)                                             \
  X(kTraceBinBin, 1, m_trace_bin_bin)                                        \
  X(kTraceLoadBinGuard, 2, m_trace_load_bin_guard)                           \
  X(kTraceBinPtrAddBoundLoad, 1, m_trace_bin_pabl)                           \
  X(kTracePtrAddBoundLoadBin, 3, m_trace_pabl_bin)                           \
  X(kTraceBinPtrAddLoad, 1, m_trace_bin_pal)                                 \
  X(kTracePtrAddLoadBin, 2, m_trace_pal_bin)                                 \
  X(kTraceBinBinBin, 1, m_trace_bin_bin_bin)                                 \
  X(kTraceLoadBinStoreLoadBin, 3, m_trace_lbs_llb)                           \
  X(kTraceBinBinStoreLocal, 1, m_trace_bin_bsl)                              \
  X(kTraceBinStore, 1, m_trace_bin_store)                                    \
  X(kTraceLoadBinBin, 2, m_trace_llb_bin)                                    \
  X(kTraceLoadBinBinStoreLocal, 2, m_trace_llb_bsl)                          \
  X(kTraceLoadBinStoreLoadBinGuard, 3, m_trace_lbs_llb_guard)                \
  X(kTraceBinBoundStore, 1, m_trace_bin_bound_store)                         \
  X(kTraceUnBin, 1, m_trace_un_bin)                                          \
  X(kTraceLoadBinGuardCmp, 2, m_trace_llb_guard_cmp)                         \
  /* itemized: */                                                            \
  X(kSegLoad, 1, m_corrupt)                                                  \
  X(kCallUser, 1, m_corrupt)                                                 \
  X(kMalloc, 1, m_corrupt)                                                   \
  X(kFree, 1, m_corrupt)                                                     \
  X(kRet, 1, m_corrupt)                                                      \
  X(kBlockEndError, 1, m_corrupt)

enum class UOp : std::uint8_t {
#define CASH_UOP_ENUM(name, width, label) name,
  CASH_UOP_LIST(CASH_UOP_ENUM)
#undef CASH_UOP_ENUM
  kCount, // sentinel: dispatch-table size
};

// Number of IR instructions a micro-op covers (the list's width column).
constexpr std::uint32_t uop_width(UOp op) noexcept {
  switch (op) {
#define CASH_UOP_WIDTH(name, width, label) \
  case UOp::name:                          \
    return width;
    CASH_UOP_LIST(CASH_UOP_WIDTH)
#undef CASH_UOP_WIDTH
    case UOp::kCount:
      break;
  }
  return 1;
}

// One decoded micro-op. Wider than strictly necessary per opcode, but flat
// and trivially indexable — the engine's working set is this array plus the
// frame's register file.
//
// Fused superinstructions overlay the constituent operands like so (aux
// always holds the plain-stream index of the first constituent, so cold
// paths can itemize; src is the first constituent's source instruction):
//
//   kFusedLoadLocalBin:  slot = load slot, imm = load dst reg;
//                        dst/src0/src1/bin_op/type = the bin.
//   kFusedBinStoreLocal: bin as above; slot = store slot.
//   kFusedLoadBinStore:  slot = load slot, imm = load dst reg; bin as
//                        above; symbol = store slot.
//   kFusedCmpBranch:     bin as above; target0/target1 = branch targets.
//   kFusedPtrAdd*Load:   src0/src1 = ptr-add operands, slot = ptr-add dst
//                        reg; sub_op = the bound op (kBoundSw/kBoundBnd/
//                        kBoundShadow) when a bound check is fused;
//                        dst = load dst reg; type/seg/rebased/is_ptr = the
//                        load's.
struct MicroInstr {
  UOp op{UOp::kGroup};
  ir::Type type{ir::Type::kInt};
  std::uint8_t seg{0};        // kLoad/kStore/kSegLoad segment register
  bool rebased{false};        // kLoad/kStore through an array segment
  bool is_ptr{false};         // value carries the fat-pointer shadow word
  bool synthetic{false};      // lowering-inserted (affects static cost only)
  Builtin builtin{};          // kBuiltin
  UOp sub_op{UOp::kGroup};    // kFusedPtrAddBoundLoad: fused bound check
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
  std::uint32_t aux{0};       // FoldedGroup index for kGroup; plain-stream
                              // index of the first constituent for fused ops
  std::uint32_t target0{0};   // kJump/kBranch: taken micro-op index
  std::uint32_t target1{0};   // kBranch: fall-through micro-op index
  std::int32_t callee{-1};    // kCallUser: DecodedProgram function index,
                              // -1 when the callee does not exist
  const ir::Instr* src{nullptr}; // source instruction (cold paths: fault
                                 // context, call argument list)
};

// Statically-known accounting deltas of one micro-op / one fused
// superinstruction / one folded group (defined in common/costs.hpp next to
// the constants it aggregates).
using StaticCost = costs::StaticCost;

// Note: `checking` cycles are charged into both `cycles` and the checking
// breakdown by the engine, matching the interpreter's double booking. For a
// fused micro-op this returns the sum of its constituents' costs
// (tests/vm/static_cost_test.cpp pins both against costs.hpp).
StaticCost static_cost(const MicroInstr& u) noexcept;

struct FoldedGroup {
  std::uint32_t count{0}; // member IR instructions (plain-stream members)
  // Plain-stream index of the group's first member: cold paths (faults,
  // budget truncation) itemize per IR instruction from here regardless of
  // which stream the hot loop was executing.
  std::uint32_t plain_first{0};
  StaticCost cost;
};

// One member stream over a function's groups. `plain` has one micro-op per
// IR instruction; `fused` merges dependent runs into superinstructions.
// Group headers, itemized ops, block entries and branch targets are all
// stream-relative micro-op indices.
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

constexpr FusionStats& operator+=(FusionStats& a,
                                  const FusionStats& b) noexcept {
  a.fused_uops += b.fused_uops;
  a.fused_instrs += b.fused_instrs;
  a.foldable_instrs += b.foldable_instrs;
  return a;
}

struct DecodedFunction {
  const ir::Function* fn{nullptr};
  UopStream plain;
  UopStream fused;
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
