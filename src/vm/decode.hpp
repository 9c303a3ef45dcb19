#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/costs.hpp"
#include "ir/function.hpp"

// Pre-decoded micro-op image (DESIGN.md §7). At CompiledProgram
// construction every IR function is lowered once into a flat array of
// decoded micro-ops: a dense opcode enum, pre-resolved operand slots,
// pre-looked-up callee indices and branch targets expressed as micro-op
// indices. The engine (decode.cpp) then dispatches through one jump table
// over this array instead of re-deriving everything per step from the IR.
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
//           a group (const+bin, local-load+bin+local-store, ptr-add+bound+
//           load/store, compare+branch) are merged into single fused
//           micro-ops with pre-summed static costs.
//
// The engine picks a stream per run from MachineConfig.enable_fusion, so
// one decoded image serves every configuration. Member dispatch is
// computed-goto threaded on GCC/Clang with a portable switch fallback (see
// decode.cpp). The result is bit-transparent either way: cycles,
// breakdowns, counters, stats, faults and output are identical to the
// reference interpreter (tests/vm/decode_test.cpp).

namespace cash::vm {

// Builtins the simulator implements directly. The decoder resolves call
// sites to one of these (or to a user-function index) once per program.
enum class Builtin : std::uint8_t {
  kNone, // user function or unknown callee
  kMalloc, kFree, kSqrt, kFabs, kSin, kCos, kExp, kLog, kFloor, kPow, kAbs,
  kPrintInt, kPrintFloat, kRand, kSrand,
};

inline Builtin builtin_of(const std::string& name) noexcept {
  if (name == "malloc") return Builtin::kMalloc;
  if (name == "free") return Builtin::kFree;
  if (name == "sqrt") return Builtin::kSqrt;
  if (name == "fabs") return Builtin::kFabs;
  if (name == "sin") return Builtin::kSin;
  if (name == "cos") return Builtin::kCos;
  if (name == "exp") return Builtin::kExp;
  if (name == "log") return Builtin::kLog;
  if (name == "floor") return Builtin::kFloor;
  if (name == "pow") return Builtin::kPow;
  if (name == "abs") return Builtin::kAbs;
  if (name == "print_int") return Builtin::kPrintInt;
  if (name == "print_float") return Builtin::kPrintFloat;
  if (name == "rand") return Builtin::kRand;
  if (name == "srand") return Builtin::kSrand;
  return Builtin::kNone;
}

enum class UOp : std::uint8_t {
  // Group header: `imm` member micro-ops follow, `aux` is the FoldedGroup
  // index. Members are foldable ops only; a terminator may appear only as
  // the last member.
  kGroup,
  // --- foldable micro-ops (only ever appear inside a group) ---
  kConstInt,
  kConstFloat,
  kMove,
  kBin,
  kUn,
  kLoad,
  kStore,
  kLoadLocal,
  kStoreLocal,
  kLoadGlobal,
  kStoreGlobal,
  kAddrLocal,
  kAddrGlobal,
  kPtrAdd,
  kBoundSw,
  kBoundBnd,
  kBoundShadow,
  kBuiltin, // statically-costed builtin call (math/print/rand/srand)
  kJump,
  kBranch,
  // --- fused superinstructions (fused stream only; decode-time pass) ---
  kFusedConstBin,         // kConstInt + kBin reading it
  kFusedLoadLocalBin,     // scalar kLoadLocal + kBin reading it
  kFusedBinStoreLocal,    // kBin + scalar kStoreLocal of its result
  kFusedLoadBinStore,     // scalar kLoadLocal + kBin + scalar kStoreLocal
  kFusedCmpBranch,        // compare kBin + kBranch on its result (terminator)
  kFusedPtrAddBound,      // kPtrAdd + kBound* on its result
  kFusedPtrAddLoad,       // kPtrAdd + kLoad through it (unchecked modes)
  kFusedPtrAddStore,      // kPtrAdd + kStore through it (unchecked modes)
  kFusedPtrAddBoundLoad,  // kPtrAdd + kBound* + kLoad
  kFusedPtrAddBoundStore, // kPtrAdd + kBound* + kStore
  // --- trace-only micro-ops (superblock streams built at run time by the
  // hot-trace engine, DESIGN.md §11; never appear in the decoded
  // plain/fused streams) ---
  kGuardBranch,    // interior kBranch: imm != 0 when the trace follows the
                   // taken arm; target0 = off-trace exit micro-op index
  kGuardCmpBranch, // interior kFusedCmpBranch, same guard fields
  kTraceLoop,      // looping trace's tail: retire the whole pass and
                   // restart at micro-op 0 without leaving the superblock
  // Trace-time peephole superinstructions: the straight-line superblock
  // exposes adjacencies the block-local fusion pass cannot see (across
  // member/terminator and spliced-block boundaries). Only the FIRST slot's
  // opcode is rewritten; the second constituent stays in the following
  // slot with its own operands and block_of/plain_done entries, so a
  // combined handler faults by advancing pc to the faulting slot and the
  // cold-path accounting needs no new bookkeeping.
  kTraceBinBin,       // kBin + the kBin in the next slot
  kTraceLoadBinGuard, // kFusedLoadLocalBin + its block's kGuardBranch
  kTraceBinPtrAddBoundLoad, // kBin + kFusedPtrAddBoundLoad
  kTracePtrAddBoundLoadBin, // kFusedPtrAddBoundLoad + kBin
  kTraceBinPtrAddLoad,      // kBin + kFusedPtrAddLoad
  kTracePtrAddLoadBin,      // kFusedPtrAddLoad + kBin
  kTraceBinBinBin,          // a kTraceBinBin pair + a third kBin
  kTraceLoadBinStoreLoadBin, // kFusedLoadBinStore + kFusedLoadLocalBin
  kTraceBinBinStoreLocal,    // kBin + kFusedBinStoreLocal
  kTraceBinStore,            // kBin + kStore
  kTraceStoreBin,            // kStore + kBin
  kTraceLoadBinBin,          // kFusedLoadLocalBin + kBin
  kTraceBinPtrAdd,           // kBin + kPtrAdd
  kTraceLoadBinStore,        // kFusedLoadLocalBin + kStore
  kTraceLoadBinBinStoreLocal, // kFusedLoadLocalBin + kFusedBinStoreLocal
  kTraceLoadBinStoreLoadBinGuard, // kFusedLoadBinStore + kFusedLoadLocalBin
                                  // + the block's kGuardBranch — the
                                  // canonical loop tail (a[i] = ...;
                                  // i = i + 1; if (i < n) repeat)
  kTraceBinBoundStore, // kBin + kBound + kStore (checked-store idiom)
  kTraceUnBin,         // kUn + kBin
  kTraceLoadBinGuardCmp, // kFusedLoadLocalBin + kGuardCmpBranch
  // --- itemized micro-ops (dynamic cost and/or control flow) ---
  kSegLoad,
  kCallUser,
  kMalloc,
  kFree,
  kRet,
  // Control fell off the end of a block (no terminator): reproduces the
  // interpreter's "fell off the end of block ..." error. `symbol` holds the
  // block id.
  kBlockEndError,
  kCount, // sentinel: dispatch-table size
};

// Number of IR instructions a micro-op covers (fused superinstructions
// cover two or three; everything else is 1:1).
constexpr std::uint32_t uop_width(UOp op) noexcept {
  switch (op) {
    case UOp::kFusedLoadBinStore:
    case UOp::kFusedPtrAddBoundLoad:
    case UOp::kFusedPtrAddBoundStore:
      return 3;
    case UOp::kFusedConstBin:
    case UOp::kFusedLoadLocalBin:
    case UOp::kFusedBinStoreLocal:
    case UOp::kFusedCmpBranch:
    case UOp::kFusedPtrAddBound:
    case UOp::kFusedPtrAddLoad:
    case UOp::kFusedPtrAddStore:
    case UOp::kGuardCmpBranch: // carries its kFusedCmpBranch constituents
    case UOp::kTraceLoadBinGuard: // first slot only: the load+bin pair (the
                                  // guard keeps its own following slot)
    case UOp::kTraceLoadBinGuardCmp: // same, kGuardCmpBranch flavor
    case UOp::kTracePtrAddLoadBin: // first slot only: the kFusedPtrAddLoad
    case UOp::kTraceLoadBinBin:    // first slot: the kFusedLoadLocalBin
    case UOp::kTraceLoadBinStore:  // first slot: the kFusedLoadLocalBin
    case UOp::kTraceLoadBinBinStoreLocal: // first slot: kFusedLoadLocalBin
      return 2;
    case UOp::kTracePtrAddBoundLoadBin: // first slot: the kFusedPtrAddBoundLoad
    case UOp::kTraceLoadBinStoreLoadBin: // first slot: the kFusedLoadBinStore
    case UOp::kTraceLoadBinStoreLoadBinGuard: // first slot only, same
      return 3;
    case UOp::kTraceLoop: // bookkeeping only, covers no IR instruction
      return 0;
    default:
      return 1;
  }
}

// One decoded micro-op. Wider than strictly necessary per opcode, but flat
// and trivially indexable — the engine's working set is this array plus the
// frame's register file.
//
// Fused superinstructions overlay the constituent operands like so (aux
// always holds the plain-stream index of the first constituent, so cold
// paths can itemize; src is the first constituent's source instruction):
//
//   kFusedConstBin:      imm = const bits, slot = const dst reg;
//                        dst/src0/src1/bin_op/type = the bin.
//   kFusedLoadLocalBin:  slot = load slot, imm = load dst reg; bin as above.
//   kFusedBinStoreLocal: bin as above; slot = store slot.
//   kFusedLoadBinStore:  slot = load slot, imm = load dst reg; bin as
//                        above; symbol = store slot.
//   kFusedCmpBranch:     bin as above; target0/target1 = branch targets.
//   kFusedPtrAdd*:       src0/src1 = ptr-add operands, slot = ptr-add dst
//                        reg; sub_op = the bound op (kBoundSw/kBoundBnd/
//                        kBoundShadow) when a bound check is fused;
//                        dst = load dst reg or store value reg; type/seg/
//                        rebased/is_ptr = the memory op's.
struct MicroInstr {
  UOp op{UOp::kGroup};
  ir::Type type{ir::Type::kInt};
  std::uint8_t seg{0};        // kLoad/kStore/kSegLoad segment register
  bool rebased{false};        // kLoad/kStore through an array segment
  bool is_ptr{false};         // value carries the fat-pointer shadow word
  bool synthetic{false};      // lowering-inserted (affects static cost only)
  Builtin builtin{};          // kBuiltin
  UOp sub_op{UOp::kGroup};    // kFusedPtrAddBound*: fused bound-check op
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

  // Decoded image of `fn`, or null if `fn` is not from this module.
  const DecodedFunction* function(const ir::Function* fn) const noexcept {
    const auto it = index_.find(fn);
    return it == index_.end() ? nullptr : &functions_[it->second];
  }

  // DecodedProgram index of `fn` (kCallUser::callee), or -1.
  int index_of(const ir::Function* fn) const noexcept {
    const auto it = index_.find(fn);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }

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
  std::unordered_map<const ir::Function*, std::size_t> index_;
  bool ok_{false};
};

} // namespace cash::vm
