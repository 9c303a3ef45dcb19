#include "vm/decode.hpp"

#include <limits>
#include <sstream>

#include "common/hot_inline.hpp"
#include "ir/verifier.hpp"
#include "vm/machine_impl.hpp"

// Computed-goto threaded dispatch is a GNU extension (labels as values,
// `&&label` / `goto*`), available on GCC and Clang. Detected here at
// compile time with a portable switch fallback sharing the same handler
// bodies; define CASH_NO_COMPUTED_GOTO to force the fallback.
#if !defined(CASH_NO_COMPUTED_GOTO) && \
    (defined(__GNUC__) || defined(__clang__))
#define CASH_THREADED_DISPATCH 1
#else
#define CASH_THREADED_DISPATCH 0
#endif

namespace cash::vm {

namespace {

using ir::BinOp;
using ir::Instr;
using ir::Opcode;
using ir::UnOp;
using x86seg::SegReg;

// Cost of a kBin. The division cost is charged even on a #DE fault (x86 pays for the attempt),
// so div/rem stay statically costed.
constexpr StaticCost bin_static_cost(BinOp op, ir::Type type) noexcept {
  if (op == BinOp::kMul) {
    return costs::alu_cost(costs::kMulOp);
  }
  if (op == BinOp::kDiv || (op == BinOp::kRem && type != ir::Type::kFloat)) {
    return costs::alu_cost(costs::kDivOp);
  }
  return costs::alu_cost();
}

constexpr costs::BoundKind bound_kind(UOp op) noexcept {
  return op == UOp::kBoundSw    ? costs::BoundKind::kSoftware
         : op == UOp::kBoundBnd ? costs::BoundKind::kBoundInsn
                                : costs::BoundKind::kShadow;
}

} // namespace

bool threaded_dispatch_enabled() noexcept {
  return CASH_THREADED_DISPATCH != 0;
}

StaticCost static_cost(const MicroInstr& u) noexcept {
  StaticCost c;
  switch (u.op) {
    case UOp::kConstInt:
      c = costs::register_op_cost();
      break;
    case UOp::kConstFloat:
      // Float immediates materialise like int immediates: register-
      // resident, kRegisterOp. Own case (not a fallthrough with kConstInt)
      // so the pinned-cost test tells the two apart if one ever changes.
      c = costs::register_op_cost();
      break;
    case UOp::kPtrAdd:
      c = costs::register_op_cost();
      break;
    case UOp::kMove:
    case UOp::kLoadLocal:
    case UOp::kStoreLocal:
      c = costs::register_op_cost(u.is_ptr);
      break;
    case UOp::kBin:
      c = bin_static_cost(u.bin_op, u.type);
      break;
    case UOp::kUn:
      c = costs::alu_cost();
      break;
    case UOp::kLoad:
    case UOp::kStore:
      c = costs::load_store_cost(u.is_ptr, u.rebased);
      break;
    case UOp::kLoadGlobal:
    case UOp::kStoreGlobal:
      c = costs::load_store_cost(u.is_ptr, false);
      break;
    case UOp::kAddrLocal:
    case UOp::kAddrGlobal:
      c.cycles = u.synthetic ? 0 : costs::kAluOp;
      break;
    case UOp::kBoundSw:
    case UOp::kBoundBnd:
    case UOp::kBoundShadow:
      c = costs::bound_check_cost(bound_kind(u.op), u.src1 != ir::kNoReg);
      break;
    case UOp::kJump:
    case UOp::kBranch:
      c.cycles = costs::kBranch;
      break;
    case UOp::kBuiltin:
      c.calls = 1;
      c.cycles = builtin_cycles(u.builtin);
      break;
    default:
      // Itemized micro-ops account for themselves in the engine;
      // superinstructions never reach here (costs are read from the plain
      // slots).
      break;
  }
  return c;
}

namespace {

// Streams are built in per-thread scratch and copied out at their final
// size, so decoding allocates each of a function's vectors once.
struct Scratch {
  UopStream stream;
  std::vector<MicroInstr> pending;
  std::vector<ir::SymbolKind> symbols;
};

Scratch& scratch() {
  thread_local Scratch tables;
  return tables;
}

// Copies `from` into `to`, each vector allocated at its exact size.
void copy_stream(const UopStream& from, UopStream& to) {
  to.uops.assign(from.uops.begin(), from.uops.end());
  to.groups.assign(from.groups.begin(), from.groups.end());
  to.block_entry.assign(from.block_entry.begin(), from.block_entry.end());
}

// The micro-op of each IR opcode, by its row of CASH_IR_OPCODE_LIST.
constexpr UOp kUopOf[] = {
#define CASH_IR_OPCODE_UOP(name, text, uop, ...) UOp::uop,
    CASH_IR_OPCODE_LIST(CASH_IR_OPCODE_UOP)
#undef CASH_IR_OPCODE_UOP
};

// Whether a micro-op runs as a group member: a PLAIN row of CASH_UOP_LIST.
constexpr auto kIsPlain = [] {
  std::array<bool, static_cast<std::size_t>(UOp::kCount)> plain{};
#define CASH_UOP_PLAIN(name) plain[static_cast<std::size_t>(UOp::name)] = true;
  CASH_UOP_LIST(CASH_UOP_PLAIN, CASH_UOP_NONE, CASH_UOP_NONE)
#undef CASH_UOP_PLAIN
  return plain;
}();

static_assert(ir::kSegRegCount == x86seg::kNumSegRegs);

// The slot of instruction `in`: the operands its row names, copied as they
// are, then the immediates, the segment of a rebased access and the call
// lowering.
MicroInstr decode_instr(const ir::Module& module, const ir::Function& fn,
                        const Instr& in) {
  const ir::OpInfo& row = ir::op_info(in.op);
  const auto uses = [](ir::Use use) { return use != ir::Use::kUnused; };
  MicroInstr m;
  m.op = kUopOf[static_cast<std::size_t>(in.op)];
  m.type = in.type;
  m.is_ptr = ir::is_pointer(in.type);
  m.synthetic = in.synthetic;
  m.bin_op = in.bin_op;
  m.un_op = in.un_op;
  m.src = &in;
  if (uses(row.dst)) m.dst = in.dst;
  if (uses(row.src0)) m.src0 = in.src0;
  if (uses(row.src1)) m.src1 = in.src1;
  if (uses(row.slot)) m.slot = in.slot;
  if (uses(row.symbol)) m.symbol = in.symbol;
  if (uses(row.target0)) m.target0 = static_cast<std::uint32_t>(in.target0);
  if (uses(row.target1)) m.target1 = static_cast<std::uint32_t>(in.target1);
  m.rebased = row.seg == ir::Use::kWhenRebased && in.rebased;
  if (row.seg == ir::Use::kRequired || m.rebased) {
    m.seg = static_cast<std::uint8_t>(in.seg);
  }
  if (in.op == Opcode::kConstInt) {
    m.imm = static_cast<std::uint32_t>(in.int_imm);
  } else if (in.op == Opcode::kConstFloat) {
    m.imm = std::bit_cast<std::uint32_t>(in.float_imm);
  } else if (in.op == Opcode::kCall) {
    // kCallUser, or a builtin's arguments (arity checked).
    const ir::CallSite& site = fn.call_site(in);
    const auto arg = [&](std::size_t i) {
      return i < site.args.size() ? site.args[i] : ir::kNoReg;
    };
    if (site.builtin == Builtin::kNone) {
      m.callee = module.has_function(site.function) ? site.function : -1;
    } else {
      m.op = site.builtin == Builtin::kMalloc ? UOp::kMalloc
             : site.builtin == Builtin::kFree ? UOp::kFree
                                              : UOp::kBuiltin;
      m.builtin = m.op == UOp::kBuiltin ? site.builtin : Builtin::kNone;
      m.src0 = arg(0);
      m.src1 = arg(1);
    }
  }
  return m;
}

// Decodes one function into its plain stream. Every instruction must pass
// ir::for_each_problem, the verifier's check: one that fails marks the
// function undecodable, and the whole module falls back to the reference
// interpreter, preserving legacy behaviour exactly.
bool decode_plain(const ir::Module& module, const ir::Function& fn,
                  const std::vector<ir::SymbolKind>& symbols, UopStream& plain,
                  std::vector<MicroInstr>& pending) {
  if (ir::function_problem(fn) != nullptr) {
    return false;
  }
  bool bad = false;
  const auto reject = [&](const char*) { bad = true; };

  plain.block_entry.assign(fn.blocks.size(), 0);
  pending.clear();

  const auto flush = [&]() {
    if (pending.empty()) {
      return;
    }
    MicroInstr head;
    head.op = UOp::kGroup;
    head.imm = static_cast<std::uint32_t>(pending.size());
    head.aux = static_cast<std::uint32_t>(plain.groups.size());
    FoldedGroup g;
    g.count = static_cast<std::uint32_t>(pending.size());
    for (const MicroInstr& m : pending) {
      g.cost += static_cost(m);
    }
    plain.groups.push_back(g);
    plain.uops.push_back(head);
    plain.uops.insert(plain.uops.end(), pending.begin(), pending.end());
    pending.clear();
  };

  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    const ir::BasicBlock& block = *fn.blocks[bi];
    plain.block_entry[bi] = static_cast<std::uint32_t>(plain.uops.size());
    for (const Instr& in : block.instrs) {
      ir::for_each_problem(fn, &symbols, in, reject);
      if (bad) {
        return false;
      }
      const MicroInstr m = decode_instr(module, fn, in);
      if (!kIsPlain[static_cast<std::size_t>(m.op)]) {
        flush();
        plain.uops.push_back(m);
      } else {
        pending.push_back(m);
        // Terminators end the group so a group's aggregate never charges
        // for members control flow can skip. Anything after this in the
        // block is dead code; it decodes into unreachable groups.
        if (in.is_terminator()) {
          flush();
        }
      }
    }
    flush();
    if (block.terminator() == nullptr) {
      // The interpreter reports running off a block's end; reproduce it.
      MicroInstr m;
      m.op = UOp::kBlockEndError;
      m.symbol = static_cast<std::int32_t>(bi);
      plain.uops.push_back(m);
    }
  }

  // Branch targets were recorded as block ids; rewrite them as micro-op
  // indices now that every block's entry offset is known.
  for (MicroInstr& m : plain.uops) {
    if (m.op == UOp::kJump || m.op == UOp::kBranch) {
      m.target0 = plain.block_entry[m.target0];
      if (m.op == UOp::kBranch) {
        m.target1 = plain.block_entry[m.target1];
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Superinstruction matching. One greedy pass, longest row first, tiles a
// span of plain slots with CASH_UOP_LIST's SUPER rows and writes each
// match's row opcode into its first slot; the other parts keep their slots
// as they are. Decoding runs it over each group's members, so a row never
// crosses a group and a group's aggregate cost stays the plain sum; trace
// formation runs it over each spliced trace, which is straight-line.
// ---------------------------------------------------------------------------

constexpr bool is_terminator(UOp op) noexcept {
  return op == UOp::kJump || op == UOp::kBranch || op == UOp::kGuardBranch;
}

// What the generated handlers rely on: a row covers at least two slots, a
// terminator can only end it, and it never starts with a bound check (the
// bound step reads the check's kind from its slot's opcode, which a first
// slot no longer holds).
static_assert([] {
  for (const SuperRow& row : kSuperRows) {
    if (row.width < 2 || row.parts[0] == UOp::kBoundSw) {
      return false;
    }
    for (std::uint32_t k = 0; k + 1 < row.width; ++k) {
      if (is_terminator(row.parts[k])) {
        return false;
      }
    }
  }
  return true;
}());

// Per step: whether some row starts with it.
constexpr auto kStartsRow = [] {
  std::array<bool, static_cast<std::size_t>(UOp::kCount)> starts{};
  for (const SuperRow& row : kSuperRows) {
    starts[static_cast<std::size_t>(row.parts[0])] = true;
  }
  return starts;
}();

// Tiles the `n` slots at `s`; returns the span's fusion coverage.
FusionStats fuse_span(MicroInstr* s, std::uint32_t n) noexcept {
  FusionStats stats;
  stats.foldable_instrs = n;
  std::uint32_t i = 0;
  while (i < n) {
    const SuperRow* best = nullptr;
    if (kStartsRow[static_cast<std::size_t>(step_op(s[i].op))]) {
      for (const SuperRow& row : kSuperRows) {
        if (row.width > n - i ||
            (best != nullptr && row.width <= best->width)) {
          continue;
        }
        std::uint32_t k = 0;
        while (k < row.width && step_op(s[i + k].op) == row.parts[k]) {
          ++k;
        }
        if (k == row.width) {
          best = &row;
        }
      }
    }
    if (best == nullptr) {
      ++i;
      continue;
    }
    s[i].op = best->op;
    ++stats.fused_uops;
    stats.fused_instrs += best->width;
    i += best->width;
  }
  return stats;
}

// Decodes one function: its plain slots, then the fused copy of them with
// each group's members tiled by the rows.
DecodedFunction decode_function(const ir::Module& module,
                                const ir::Function& fn,
                                const std::vector<ir::SymbolKind>& symbols) {
  Scratch& tables = scratch();
  UopStream& plain = tables.stream;
  plain.uops.clear();
  plain.groups.clear();
  plain.block_entry.clear();
  DecodedFunction out;
  out.fn = &fn;
  out.ok = decode_plain(module, fn, symbols, plain, tables.pending);
  copy_stream(plain, out.plain);
  if (out.ok) {
    out.fused.assign(out.plain.uops.begin(), out.plain.uops.end());
    for (std::size_t i = 0; i < out.fused.size(); ++i) {
      if (out.fused[i].op == UOp::kGroup) {
        const std::uint32_t n = out.fused[i].imm;
        out.stats += fuse_span(out.fused.data() + i + 1, n);
        i += n;
      }
    }
  }
  return out;
}

} // namespace

DecodedProgram::DecodedProgram(const ir::Module& module) : module_(&module) {
  std::vector<ir::SymbolKind>& symbols = scratch().symbols;
  ir::symbol_kinds(module, symbols);

  ok_ = true;
  functions_.reserve(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    functions_.push_back(
        decode_function(module, *module.functions[i], symbols));
    ok_ = ok_ && functions_.back().ok;
  }
}

// ---------------------------------------------------------------------------
// Micro-op engine. Mirrors Machine::Impl::execute_interpreter exactly —
// the accounting contract (what is charged before vs. after each possible
// fault) is documented per-site there; here straight-line accounting is
// instead folded per group and reconstructed itemized on the cold paths
// (fault inside a group, instruction budget tripping mid-group).
//
// Group members are dispatched through a computed-goto dispatch table on
// GCC/Clang (one indirect branch per handler, so the host branch predictor
// learns per-opcode successor patterns) and through an equivalent switch
// over the same labels elsewhere. The itemized outer loop keeps its
// switch: its ops are rare and heavyweight, so dispatch cost is noise
// there. Which copy of the slots block dispatch runs — plain or fused — is
// chosen per run from MachineConfig.enable_fusion. Both copies share one
// index space and the cold paths always read costs from the plain slots,
// so fused runs fault, truncate and charge exactly like unfused ones.
// ---------------------------------------------------------------------------

namespace {

// Executes one kBin. Returns 0 on success, 1 = integer division by zero,
// 2 = integer division overflow, 3 = float operand to an integer-only
// operator; `out` is what the interpreter writes to the destination
// register for that outcome (value-initialised on error).
CASH_HOT_INLINE
inline int exec_bin(const MicroInstr& v, const Value a, const Value b,
                    Value& out) noexcept {
  if (v.type == ir::Type::kFloat) {
    const float x = as_float(a);
    const float y = as_float(b);
    switch (v.bin_op) {
      case BinOp::kAdd: out = from_float(x + y); return 0;
      case BinOp::kSub: out = from_float(x - y); return 0;
      case BinOp::kMul: out = from_float(x * y); return 0;
      case BinOp::kDiv: out = from_float(x / y); return 0;
      case BinOp::kCmpEq: out = from_int(x == y); return 0;
      case BinOp::kCmpNe: out = from_int(x != y); return 0;
      case BinOp::kCmpLt: out = from_int(x < y); return 0;
      case BinOp::kCmpLe: out = from_int(x <= y); return 0;
      case BinOp::kCmpGt: out = from_int(x > y); return 0;
      case BinOp::kCmpGe: out = from_int(x >= y); return 0;
      default: return 3;
    }
  }
  const std::int32_t x = as_int(a);
  const std::int32_t y = as_int(b);
  const std::uint32_t ux = a.bits;
  const std::uint32_t uy = b.bits;
  switch (v.bin_op) {
    case BinOp::kAdd: out = Value{ux + uy, 0}; return 0;
    case BinOp::kSub: out = Value{ux - uy, 0}; return 0;
    case BinOp::kMul: out = Value{ux * uy, 0}; return 0;
    case BinOp::kDiv:
    case BinOp::kRem:
      if (y == 0 ||
          (x == std::numeric_limits<std::int32_t>::min() && y == -1)) {
        return y == 0 ? 1 : 2;
      }
      out = from_int(v.bin_op == BinOp::kDiv ? x / y : x % y);
      return 0;
    case BinOp::kAnd: out = from_int(x & y); return 0;
    case BinOp::kOr:  out = from_int(x | y); return 0;
    case BinOp::kXor: out = from_int(x ^ y); return 0;
    case BinOp::kShl: out = Value{ux << (uy & 31), 0}; return 0;
    case BinOp::kShr:
      out = from_int(static_cast<std::int32_t>(x >> (y & 31)));
      return 0;
    case BinOp::kCmpEq: out = from_int(x == y); return 0;
    case BinOp::kCmpNe: out = from_int(x != y); return 0;
    case BinOp::kCmpLt: out = from_int(x < y); return 0;
    case BinOp::kCmpLe: out = from_int(x <= y); return 0;
    case BinOp::kCmpGt: out = from_int(x > y); return 0;
    case BinOp::kCmpGe: out = from_int(x >= y); return 0;
  }
  return 0;
}

// Executes one kUn, which never faults.
CASH_HOT_INLINE
inline Value exec_un(const MicroInstr& v, const Value a) noexcept {
  switch (v.un_op) {
    case UnOp::kNeg:
      return v.type == ir::Type::kFloat ? from_float(-as_float(a))
                                        : from_int(-as_int(a));
    case UnOp::kLogicalNot: return from_int(as_int(a) == 0);
    case UnOp::kBitNot:     return from_int(~as_int(a));
    case UnOp::kIntToFloat: return from_float(static_cast<float>(as_int(a)));
    case UnOp::kFloatToInt:
      return from_int(static_cast<std::int32_t>(as_float(a)));
  }
  return Value{};
}

// ---------------------------------------------------------------------------
// Hot-trace superblock formation (DESIGN.md §11). When a block's execution
// counter reaches kTraceThreshold, the engine follows the recorded biased
// successor edges and splices up to kTraceMaxBlocks blocks' plain member
// slots into one straight-line stream: interior kJumps vanish,
// interior branches become guard micro-ops whose biased arm falls through,
// and the SUPER rows tile the result.
// A chain whose biased tail returns to the entry closes into a loop — the
// tail becomes a kTraceLoop that retires the pass and restarts at micro-op
// 0 without leaving the superblock (a hot inner loop never touches the
// outer dispatch loop between iterations); a chain that does not close
// keeps the final block's original terminator. The chain walk does not cut
// at revisits short of the entry, so a short loop body is naturally
// unrolled up to the block budget. Promotion reads only the decoded image
// and the edge counters, both pure functions of the simulated instruction
// stream, so it replays identically across host job counts and
// snapshot/restore.
// ---------------------------------------------------------------------------

constexpr std::int32_t kTraceNone = -1;
constexpr std::int32_t kTraceDead = -2;
constexpr std::uint32_t kTraceMaxBlocks = 16;
// Block execution count at which a hot block is promoted into a superblock.
// Promotion is a pure function of the simulated instruction stream (never
// of host timing or job count), so TraceStats replay identically across
// host jobs. Formed traces outlive restore(), so a restored machine forms
// fewer of them than a fresh one; no simulated field moves.
constexpr std::uint32_t kTraceThreshold = 16;

// A block joins a trace only when it is a non-empty group ending in a
// terminator. Blocks that fall through into an itemized micro-op (calls,
// returns, malloc/free, seg loads) or into kBlockEndError stay on the
// normal dispatch path.
bool traceable_block(const UopStream& s, std::uint32_t entry) noexcept {
  if (entry >= s.uops.size()) {
    return false;
  }
  const MicroInstr& h = s.uops[entry];
  if (h.op != UOp::kGroup || h.imm == 0) {
    return false;
  }
  return is_terminator(s.uops[entry + h.imm].op);
}

// Follows the biased successor of the block headed at `bpc`: the one
// successor of a kJump, the more-travelled arm of a branch (ties —
// including the cold never-executed case — deterministically pick the
// taken arm).
std::uint32_t biased_successor(const FnTraceState& ts, const UopStream& s,
                               std::uint32_t bpc) {
  const std::uint32_t term_at = bpc + s.uops[bpc].imm;
  const MicroInstr& term = s.uops[term_at];
  if (term.op == UOp::kJump) {
    return term.target0;
  }
  const TraceEdge& e = ts.edges[term_at];
  return e.not_taken > e.taken ? term.target1 : term.target0;
}

// Forms a superblock starting at `entry` (a traceable group header whose
// counter just crossed the threshold). Returns the new trace's index in
// ts.traces, or kTraceDead when the chain is a single block that does not
// loop on itself — such a trace is just the group the engine already
// executes, so the entry is marked refused and never re-examined.
std::int32_t try_form_trace(FnTraceState& ts, const UopStream& s,
                            std::uint32_t entry, TraceStats& stats) {
  // Walk the biased chain until it closes back on the entry (a loop), runs
  // into a non-traceable block, or exhausts the block budget.
  std::vector<std::uint32_t> chain;
  std::uint32_t cur = entry;
  bool closed = false;
  while (chain.size() < kTraceMaxBlocks && traceable_block(s, cur)) {
    if (cur == entry && !chain.empty()) {
      closed = true;
      break;
    }
    chain.push_back(cur);
    cur = biased_successor(ts, s, cur);
  }
  if (!closed && chain.size() < 2) {
    ts.trace_at[entry] = kTraceDead;
    return kTraceDead;
  }

  // A closed chain is one full loop iteration; unroll whole copies of the
  // body into the remaining block budget so each kTraceLoop retire covers
  // several iterations (guards keep partial final passes exact).
  if (closed) {
    const std::vector<std::uint32_t> body = chain;
    while (chain.size() + body.size() <= kTraceMaxBlocks) {
      chain.insert(chain.end(), body.begin(), body.end());
    }
  }

  Trace tr;
  tr.entry_pc = entry;
  std::size_t slots = closed ? 1 : 0; // the kTraceLoop
  for (const std::uint32_t bpc : chain) {
    slots += s.uops[bpc].imm;
  }
  tr.uops.reserve(slots);
  tr.block_of.reserve(slots);
  StaticCost cum;
  std::uint32_t cum_count = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::uint32_t bpc = chain[i];
    const MicroInstr& head = s.uops[bpc];
    const FoldedGroup& g = s.groups[head.aux];
    const bool last = i + 1 == chain.size();

    TraceBlock tb;
    tb.entry_pc = bpc;
    tb.first_slot = static_cast<std::uint32_t>(tr.uops.size());
    const std::uint32_t term_at = bpc + head.imm;
    tr.uops.insert(tr.uops.end(), s.uops.begin() + bpc + 1,
                   s.uops.begin() + term_at);
    const MicroInstr& term = s.uops[term_at];
    if (!last || closed) {
      // The chain continues past this block (to chain[i+1], or back to the
      // entry when the loop closes): the biased arm falls through, the
      // other arm becomes a guard's side exit. A kJump is elided entirely
      // — its one successor follows directly.
      if (term.op == UOp::kBranch) {
        MicroInstr guard = term;
        guard.op = UOp::kGuardBranch;
        const std::uint32_t next_blk = last ? entry : chain[i + 1];
        const bool biased_taken = next_blk == term.target0;
        guard.imm = biased_taken ? 1 : 0;
        guard.target0 = biased_taken ? term.target1 : term.target0;
        tr.uops.push_back(guard);
      }
    } else {
      // Open chain's final block: the original terminator with
      // original-stream targets.
      tr.uops.push_back(term);
    }
    tr.block_of.resize(tr.uops.size(), static_cast<std::uint32_t>(i));

    cum += g.cost;
    cum_count += g.count;
    tb.cum_cost = cum;
    tb.cum_count = cum_count;
    tr.blocks.push_back(tb);
  }
  if (closed) {
    MicroInstr loop;
    loop.op = UOp::kTraceLoop;
    tr.uops.push_back(loop);
    tr.block_of.push_back(static_cast<std::uint32_t>(chain.size() - 1));
  }
  tr.total.count = cum_count;
  tr.total.cost = cum;
  fuse_span(tr.uops.data(), static_cast<std::uint32_t>(tr.uops.size()));

  const std::int32_t idx = static_cast<std::int32_t>(ts.traces.size());
  ts.traces.push_back(std::move(tr));
  ts.trace_at[entry] = idx;
  ++stats.traces_formed;
  return idx;
}

} // namespace

// Handler chaining: in threaded mode every handler ends in its own
// indirect branch off the dispatch table; the portable fallback funnels
// back through the member_dispatch switch. `n` is the handler's slot count.
#if CASH_THREADED_DISPATCH
#define CASH_MEMBER_NEXT(n)                                      \
  do {                                                           \
    if ((ip += (n)) >= stop) goto group_done;                    \
    goto* kDispatch[static_cast<std::size_t>(ip->op)];           \
  } while (0)
#else
#define CASH_MEMBER_NEXT(n) \
  do {                      \
    ip += (n);              \
    goto member_dispatch;   \
  } while (0)
#endif

// One step per PLAIN micro-op of CASH_UOP_LIST: the semantics of the slot
// k slots past ip, shared by the op's own handler (k = 0) and by every
// superinstruction that covers it. Each slot is addressed from the one ip,
// which a handler advances once, at its end. A step that faults first
// moves ip to its own slot, sets `partial` (the faulting instruction's
// charge: 0 = none, 1 = memory, 2 = full) and jumps to group_fault; a
// terminator step leaves through group_done, or through trace_exit (ip on
// the guard) when a guard fails.
#define CASH_STEP_FAULT(k, charge) \
  {                                \
    ip += (k);                     \
    partial = (charge);            \
    goto group_fault;              \
  }
#define CASH_STEP_kConstInt(k)             \
  {                                        \
    const MicroInstr& v = ip[k];   \
    regs[v.dst] = Value{v.imm, 0};         \
  }
#define CASH_STEP_kConstFloat CASH_STEP_kConstInt
#define CASH_STEP_kMove(k)                 \
  {                                        \
    const MicroInstr& v = ip[k];   \
    regs[v.dst] = regs[v.src0];            \
  }
#define CASH_STEP_kBin(k)                                           \
  {                                                                 \
    const MicroInstr& v = ip[k];                            \
    Value out;                                                      \
    const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);    \
    regs[v.dst] = out;                                              \
    if (st != 0) {                                                  \
      bin_fail(st, v.src);                                          \
      CASH_STEP_FAULT(k, 2)                                         \
    }                                                               \
  }
#define CASH_STEP_kUn(k)                   \
  {                                        \
    const MicroInstr& v = ip[k];   \
    regs[v.dst] = exec_un(v, regs[v.src0]); \
  }
#define CASH_STEP_kLoad(k)                                  \
  {                                                         \
    const MicroInstr& v = ip[k];                    \
    const int st = exec_load(v, regs[v.src0], v.src);       \
    if (st != 0) CASH_STEP_FAULT(k, st == 1 ? 1 : 0)        \
  }
#define CASH_STEP_kStore(k)                                           \
  {                                                                   \
    const MicroInstr& v = ip[k];                              \
    const int st = exec_store(v, regs[v.src0], regs[v.src1], v.src);  \
    if (st != 0) CASH_STEP_FAULT(k, st == 1 ? 1 : 0)                  \
  }
#define CASH_STEP_kLoadLocal(k)            \
  {                                        \
    const MicroInstr& v = ip[k];   \
    regs[v.dst] = slots[v.slot];           \
  }
#define CASH_STEP_kStoreLocal(k)           \
  {                                        \
    const MicroInstr& v = ip[k];   \
    slots[v.slot] = regs[v.src0];          \
  }
#define CASH_STEP_kLoadGlobal(k)                               \
  {                                                            \
    const MicroInstr& v = ip[k];                       \
    const std::uint32_t addr = flat_scalar[v.symbol];          \
    Result<std::uint32_t> loaded = mmu.read32_linear(addr);    \
    if (!loaded.ok()) {                                        \
      fail(loaded.fault(), v.src);                             \
      CASH_STEP_FAULT(k, 0)                                    \
    }                                                          \
    std::uint32_t info = 0;                                    \
    if (v.is_ptr) {                                            \
      const auto it = mem_ptr_info.find(addr);                 \
      info = it != mem_ptr_info.end() ? it->second : 0;        \
    }                                                          \
    regs[v.dst] = Value{loaded.value(), info};                 \
  }
#define CASH_STEP_kStoreGlobal(k)                                      \
  {                                                                    \
    const MicroInstr& v = ip[k];                               \
    const std::uint32_t addr = flat_scalar[v.symbol];                  \
    Status status = mmu.write32_linear(addr, regs[v.src0].bits);       \
    if (!status.ok()) {                                                \
      fail(status.fault(), v.src);                                     \
      CASH_STEP_FAULT(k, 0)                                            \
    }                                                                  \
    if (v.is_ptr) {                                                    \
      mem_ptr_info[addr] = regs[v.src0].info;                          \
    }                                                                  \
  }
#define CASH_STEP_kAddrLocal(k)            \
  {                                        \
    const MicroInstr& v = ip[k];   \
    regs[v.dst] = local_arrays[v.slot];    \
  }
#define CASH_STEP_kAddrGlobal(k)                                        \
  {                                                                     \
    const MicroInstr& v = ip[k];                                \
    regs[v.dst] = Value{flat_gdata[v.symbol], flat_ginfo[v.symbol]};    \
  }
#define CASH_STEP_kPtrAdd(k)                                            \
  {                                                                     \
    const MicroInstr& v = ip[k];                                \
    const Value base = regs[v.src0];                                    \
    regs[v.dst] = Value{base.bits + regs[v.src1].bits, base.info};      \
  }
#define CASH_STEP_kBoundSw(k)                                            \
  {                                                                      \
    const MicroInstr& v = ip[k];                                 \
    const bool fired =                                                   \
        v.src1 != ir::kNoReg                                             \
            ? bound_fault_interval(v.op, regs[v.src0], regs[v.src1],     \
                                   v.src)                                \
            : bound_fault(v.op, regs[v.src0], v.src);                    \
    if (fired) CASH_STEP_FAULT(k, 2)                                     \
  }
#define CASH_STEP_kBoundBnd CASH_STEP_kBoundSw
#define CASH_STEP_kBoundShadow CASH_STEP_kBoundSw
#define CASH_STEP_kBuiltin(k)                                       \
  {                                                                 \
    const MicroInstr& v = ip[k];                            \
    run_builtin(v.builtin, regs, v.dst, v.src0, v.src1, output,     \
                impl.rng_state);                                    \
  }
#define CASH_STEP_kJump(k)           \
  {                                  \
    next_pc = ip[k].target0; \
    goto group_done;                 \
  }
#define CASH_STEP_kBranch(k)                        \
  {                                                 \
    const MicroInstr& v = ip[k];            \
    const bool taken = as_int(regs[v.src0]) != 0;   \
    if (brec != nullptr) {                          \
      TraceEdge& e = brec[ip - mcode + k];          \
      ++(taken ? e.taken : e.not_taken);            \
    }                                               \
    next_pc = taken ? v.target0 : v.target1;        \
    goto group_done;                                \
  }
// The biased arm stays on the trace; the other leaves it.
#define CASH_STEP_kGuardBranch(k)                                \
  {                                                              \
    const MicroInstr& v = ip[k];                         \
    if ((as_int(regs[v.src0]) != 0) != (v.imm != 0)) {           \
      next_pc = v.target0;                                       \
      ip += (k);                                                 \
      goto trace_exit;                                           \
    }                                                            \
  }

// A SUPER row's steps, at slot offsets 0, 1, ...
#define CASH_STEPS_1(a) CASH_STEP_##a(0)
#define CASH_STEPS_2(a, b) CASH_STEPS_1(a) CASH_STEP_##b(1)
#define CASH_STEPS_3(a, b, c) CASH_STEPS_2(a, b) CASH_STEP_##c(2)
#define CASH_STEPS_4(a, b, c, d) CASH_STEPS_3(a, b, c) CASH_STEP_##d(3)
#define CASH_STEPS_5(a, b, c, d, e) CASH_STEPS_4(a, b, c, d) CASH_STEP_##e(4)
#define CASH_STEPS_6(a, b, c, d, e, f) \
  CASH_STEPS_5(a, b, c, d, e) CASH_STEP_##f(5)
#define CASH_NARGS_PICK(_1, _2, _3, _4, _5, _6, n, ...) n
#define CASH_NARGS(...) CASH_NARGS_PICK(__VA_ARGS__, 6, 5, 4, 3, 2, 1)
#define CASH_CAT(a, b) CASH_CAT_(a, b)
#define CASH_CAT_(a, b) a##b
static_assert(kMaxSuperWidth == 6, "CASH_STEPS expands at most six parts");

// Member handlers, generated per PLAIN and SUPER row.
#define CASH_PLAIN_HANDLER(name) \
  h_##name : CASH_STEP_##name(0) CASH_MEMBER_NEXT(1);
#define CASH_SUPER_HANDLER(name, ...)                                \
  h_##name : CASH_CAT(CASH_STEPS_, CASH_NARGS(__VA_ARGS__))(__VA_ARGS__) \
      CASH_MEMBER_NEXT(CASH_NARGS(__VA_ARGS__));

RunResult execute_decoded(Machine::Impl& impl, const ir::Function* entry,
                          std::string& output) {
  const DecodedProgram& prog = *impl.decoded;
  RunResult result;
  const FrameCharge opening = impl.begin_run(entry, result);
  if (!result.error.empty()) {
    return result;
  }
  std::uint64_t cycles = opening.runtime;
  std::uint64_t checking_cy = 0; // bound-check work
  std::uint64_t shadow_cy = 0;   // the shadow processor's workload
  std::uint64_t runtime_cy = opening.runtime; // set-up/teardown/bookkeeping
  RunCounters& ctr = result.counters;

  const std::uint64_t ptr_penalty = impl.ptr_copy_penalty();
  const std::uint64_t max_instructions = impl.config.max_instructions;
  mmu::Mmu& mmu = impl.mmu;
  auto& mem_ptr_info = impl.mem_ptr_info;
  const std::uint32_t* flat_scalar = impl.flat_global_scalar.data();
  const std::uint32_t* flat_gdata = impl.flat_global_data.data();
  const std::uint32_t* flat_ginfo = impl.flat_global_info.data();

  // One copy choice serves the whole run: the image is immutable and both
  // copies are always present, so this is pure selection.
  const bool fusion_on = impl.config.enable_fusion;

  // Hot-trace superblock engine (DESIGN.md §11): same per-run gating shape
  // as the other transparent layers. The trace cache lives on the machine
  // and persists across runs and restores; coverage is reported per run.
  const bool trace_on = impl.config.enable_trace;
  if (trace_on && impl.trace_fns.size() != prog.functions().size()) {
    impl.trace_fns.resize(prog.functions().size());
  }
  const std::uint64_t trace_instr_base = impl.trace_stats.trace_instructions;

  // The top frame, cached in locals the dispatch loop reads; load_top()
  // re-derives them after every push and pop (the stack's arenas move
  // when they grow). fpc is the frame's slot index.
  CallStack& stack = impl.stack;
  const DecodedFunction* dfn = nullptr;
  const MicroInstr* code = nullptr; // plain or fused slots, fixed per run
  FnTraceState* tstate = nullptr;   // null when the trace engine is off
  std::uint32_t fpc = 0;
  Value* regs = nullptr;
  Value* slots = nullptr;
  Value* local_arrays = nullptr;
  const auto load_top = [&] {
    const CallFrame& top = stack.top();
    dfn = &prog.functions()[top.fn_index];
    code = fusion_on ? dfn->fused.data() : dfn->plain.uops.data();
    fpc = top.pos;
    regs = stack.regs(top);
    slots = frame_slots(regs, *dfn->fn);
    local_arrays = frame_arrays(regs, *dfn->fn);
    if (trace_on) {
      FnTraceState& ts = impl.trace_fns[top.fn_index];
      if (ts.hot.empty()) {
        // First use: one entry per slot (a function has at least one).
        const std::size_t n = dfn->plain.uops.size();
        ts.hot.assign(n, 0);
        ts.edges.assign(n, TraceEdge{});
        ts.trace_at.assign(n, kTraceNone);
      }
      tstate = &ts;
    }
  };
  // Enters the callee the stack just pushed, at its entry block.
  const auto enter_top = [&] {
    load_top();
    fpc = dfn->plain.block_entry[static_cast<std::size_t>(dfn->fn->entry)];
  };

  const auto fail = [&](Fault fault, const ir::Instr* instr) {
    std::ostringstream ctx;
    ctx << fault.detail << " [in " << dfn->fn->name;
    if (instr != nullptr && instr->loc.line > 0) {
      ctx << " at line " << instr->loc.line;
    }
    ctx << "]";
    fault.detail = ctx.str();
    result.fault = std::move(fault);
  };

  // Full statically-known charge of one micro-op / one folded group
  // (everything except the `instructions` counter).
  const auto apply_cost = [&](const StaticCost& c) {
    cycles += c.cycles + c.checking + c.ptr_events * ptr_penalty;
    checking_cy += c.checking;
    runtime_cy += c.ptr_events * ptr_penalty;
    shadow_cy += c.shadow;
    ctr.ptr_word_copies += c.ptr_events * ptr_penalty;
    ctr.hw_checked_accesses += c.hw_checks;
    ctr.sw_checks += c.sw_checks;
    ctr.calls += c.calls;
  };

  // Member-loop working set. Function scope (not per-group locals) so the
  // computed gotos between handlers never jump across an initialization.
  const MicroInstr* mcode = nullptr; // member array the hot loop executes
  const MicroInstr* ip = nullptr;    // its slot being run
  const MicroInstr* stop = nullptr;  // one past its last member to run
  const FoldedGroup* grp = nullptr;
  std::uint32_t start = 0;
  std::uint32_t next_pc = 0;
  int partial = 0; // fault charge: 0 = none, 1 = mem, 2 = full
  bool truncated = false;
  const Trace* cur_trace = nullptr; // active superblock (null otherwise)
  TraceEdge* brec = nullptr;        // bias recording base; null in traces
                                    // (trace-local pcs would mis-index it)

  // Loads through `v`'s segment/rebase into regs[v.dst]; `addr` is the
  // pointer value, regs[v.src0]. Returns 0 on success, 1 after an MMU
  // fault (memory partial charge), 2 after a GP through an unloaded
  // segment register (no charge); calls fail() itself.
  const auto exec_load = [&](const MicroInstr& v, const Value addr,
                             const ir::Instr* src) CASH_HOT_INLINE -> int {
    SegReg seg = SegReg::kDs;
    std::uint32_t offset = addr.bits;
    if (v.rebased) {
      seg = static_cast<SegReg>(v.seg);
      const x86seg::SegmentRegister& sr = impl.seg_unit.reg(seg);
      if (!sr.valid) {
        fail(Fault{FaultKind::kGeneralProtection, addr.bits, 0,
                   "rebased access through unloaded segment register"},
             src);
        return 2;
      }
      offset = addr.bits - sr.cached.base();
    }
    Result<std::uint32_t> loaded = mmu.read32(seg, offset);
    if (!loaded.ok()) {
      fail(loaded.fault(), src);
      return 1;
    }
    std::uint32_t info = 0;
    if (v.is_ptr) {
      const std::uint32_t linear =
          v.rebased ? impl.seg_unit.reg(seg).cached.base() + offset : offset;
      const auto it = mem_ptr_info.find(linear);
      info = it != mem_ptr_info.end() ? it->second : 0;
    }
    regs[v.dst] = Value{loaded.value(), info};
    return 0;
  };

  // Store counterpart of exec_load; `val` is the stored register's value.
  const auto exec_store =
      [&](const MicroInstr& v, const Value addr, const Value val,
          const ir::Instr* src) CASH_HOT_INLINE -> int {
    SegReg seg = SegReg::kDs;
    std::uint32_t offset = addr.bits;
    if (v.rebased) {
      seg = static_cast<SegReg>(v.seg);
      const x86seg::SegmentRegister& sr = impl.seg_unit.reg(seg);
      if (!sr.valid) {
        fail(Fault{FaultKind::kGeneralProtection, addr.bits, 0,
                   "rebased access through unloaded segment register"},
             src);
        return 2;
      }
      offset = addr.bits - sr.cached.base();
    }
    Status status = mmu.write32(seg, offset, val.bits);
    if (!status.ok()) {
      fail(status.fault(), src);
      return 1;
    }
    if (v.is_ptr) {
      const std::uint32_t linear =
          v.rebased ? impl.seg_unit.reg(seg).cached.base() + offset : offset;
      mem_ptr_info[linear] = val.info;
    }
    return 0;
  };

  // Software-visible bound check (kBoundSw/kBoundBnd/kBoundShadow). True
  // when the check fired; calls fail() itself.
  const auto bound_fault = [&](UOp kind, const Value addr,
                               const ir::Instr* src) CASH_HOT_INLINE -> bool {
    if (addr.info == 0) {
      return false;
    }
    Result<std::uint32_t> lower =
        mmu.read32_linear(addr.info + runtime::kInfoLowerOff);
    Result<std::uint32_t> upper =
        mmu.read32_linear(addr.info + runtime::kInfoUpperOff);
    if (!lower.ok() || !upper.ok()) {
      return false;
    }
    if (addr.bits >= lower.value() && addr.bits + 4 <= upper.value()) {
      return false;
    }
    std::ostringstream detail;
    detail << (kind == UOp::kBoundBnd   ? "bound instruction"
               : kind == UOp::kBoundSw ? "software check"
                                       : "shadow-processor check")
           << ": address 0x" << std::hex << addr.bits << " outside [0x"
           << lower.value() << ", 0x" << upper.value() << ")";
    fail(Fault{FaultKind::kBoundRange, addr.bits, 0, detail.str()}, src);
    return true;
  };

  // Interval form of the above: checks [lo, hi] against the bounds of the
  // object lo's shadow points to. An empty range (lo > hi, the hoisted
  // check of a zero-trip loop) passes unconditionally. The detail string is
  // byte-identical to the interpreter's.
  const auto bound_fault_interval =
      [&](UOp kind, const Value lo, const Value hi,
          const ir::Instr* src) CASH_HOT_INLINE -> bool {
    if (lo.info == 0 || lo.bits > hi.bits) {
      return false;
    }
    Result<std::uint32_t> lower =
        mmu.read32_linear(lo.info + runtime::kInfoLowerOff);
    Result<std::uint32_t> upper =
        mmu.read32_linear(lo.info + runtime::kInfoUpperOff);
    if (!lower.ok() || !upper.ok()) {
      return false;
    }
    if (lo.bits >= lower.value() && hi.bits + 4 <= upper.value()) {
      return false;
    }
    std::ostringstream detail;
    detail << (kind == UOp::kBoundBnd   ? "bound instruction"
               : kind == UOp::kBoundSw ? "software check"
                                       : "shadow-processor check")
           << ": range [0x" << std::hex << lo.bits << ", 0x" << hi.bits
           << "] outside [0x" << lower.value() << ", 0x" << upper.value()
           << ")";
    fail(Fault{FaultKind::kBoundRange, lo.bits, 0, detail.str()}, src);
    return true;
  };

  // Books a nonzero exec_bin status the way the interpreter does: #DE
  // faults through fail(), the float-operand misuse as a plain error.
  const auto bin_fail = [&](int st, const ir::Instr* src) {
    if (st == 3) {
      result.error = "float operand to integer-only operator";
    } else {
      fail(Fault{FaultKind::kInvalidOpcode, 0, 0,
                 st == 1 ? "integer division by zero"
                         : "integer division overflow"},
           src);
    }
  };

  enter_top();

#if CASH_THREADED_DISPATCH
  // Label-address dispatch table, indexed by UOp: the generated handler of
  // each PLAIN and SUPER row, and each OTHER row's label. Group headers and
  // itemized micro-ops never appear as group members; they map to the
  // corrupt-stream handler.
  static const void* const kDispatch[] = {
#define CASH_UOP_HANDLER(name, ...) &&h_##name,
#define CASH_UOP_LABEL(name, label) &&label,
      CASH_UOP_LIST(CASH_UOP_HANDLER, CASH_UOP_HANDLER, CASH_UOP_LABEL)
#undef CASH_UOP_HANDLER
#undef CASH_UOP_LABEL
  };
#endif

  for (;;) {
    const MicroInstr& u = code[fpc];
    // An itemized micro-op is one instruction, counted before it runs.
    if (u.op != UOp::kGroup && u.op != UOp::kBlockEndError &&
        ++ctr.instructions > max_instructions) {
      result.error = "instruction budget exceeded (possible infinite loop)";
      goto run_end;
    }
    switch (u.op) {
      case UOp::kGroup: {
        if (tstate != nullptr) {
          FnTraceState& ts = *tstate;
          std::int32_t ti = ts.trace_at[fpc];
          if (ti == kTraceNone && ++ts.hot[fpc] == kTraceThreshold) {
            ti = try_form_trace(ts, dfn->plain, fpc, impl.trace_stats);
          }
          if (ti >= 0) {
            const Trace& tr = ts.traces[static_cast<std::size_t>(ti)];
            // Budget precondition: a trace never straddles the instruction
            // cap. When it would, this entry falls through to normal
            // dispatch, whose per-group check truncates exactly like the
            // interpreter; later entries re-check.
            if (ctr.instructions + tr.total.count <= max_instructions) {
              ++impl.trace_stats.trace_execs;
              cur_trace = &tr;
              grp = &tr.total;
              mcode = tr.uops.data();
              ip = mcode;
              stop = mcode + tr.uops.size();
              next_pc = fpc; // the final terminator always overwrites
              partial = 0;
              truncated = false;
              brec = nullptr;
              goto member_dispatch;
            }
          }
          brec = ts.edges.data();
        } else {
          brec = nullptr;
        }
        cur_trace = nullptr;
        grp = &dfn->plain.groups[u.aux];
        start = fpc + 1;
        next_pc = start + u.imm;
        partial = 0;
        truncated = false;
        mcode = code;
        stop = mcode + next_pc;
        if (ctr.instructions + grp->count > max_instructions) {
          // The budget trips mid-group: run only the IR instructions the
          // interpreter would have executed (the terminator, always last,
          // is never among them), from the plain slots, whose handlers
          // each run one.
          mcode = dfn->plain.uops.data();
          stop = mcode + start + (max_instructions - ctr.instructions);
          truncated = true;
        }
        ip = mcode + start;
        goto member_dispatch;

      member_dispatch:
        if (ip >= stop) goto group_done;
#if CASH_THREADED_DISPATCH
        goto* kDispatch[static_cast<std::size_t>(ip->op)];
#else
        switch (ip->op) {
#define CASH_UOP_HANDLER(name, ...) \
  case UOp::name:                   \
    goto h_##name;
#define CASH_UOP_LABEL(name, label) \
  case UOp::name:                   \
    goto label;
          CASH_UOP_LIST(CASH_UOP_HANDLER, CASH_UOP_HANDLER, CASH_UOP_LABEL)
#undef CASH_UOP_HANDLER
#undef CASH_UOP_LABEL
          default: goto m_corrupt;
        }
#endif

      CASH_UOP_LIST(CASH_PLAIN_HANDLER, CASH_SUPER_HANDLER, CASH_UOP_NONE)

      trace_exit: {
        // A guard left the superblock. The guard is its block's
        // terminator, so blocks [0..block_of[guard]] completed in full —
        // charge their precomputed aggregate and resume normal dispatch at
        // the off-trace target with exact machine state.
        const TraceBlock& tb =
            cur_trace->blocks[cur_trace->block_of[ip - mcode]];
        apply_cost(tb.cum_cost);
        ctr.instructions += tb.cum_count;
        impl.trace_stats.trace_instructions += tb.cum_count;
        ++impl.trace_stats.guard_exits;
        cur_trace = nullptr;
        fpc = next_pc;
        break;
      }

      m_trace_loop: {
        // A looping trace's tail: the pass ran every block in full. Retire
        // it exactly like group_done would, then restart the stream in
        // place — a hot inner loop never touches the outer dispatch loop
        // (or the group header) between iterations. When the next pass
        // would cross the instruction budget, fall back to normal dispatch
        // at the entry, whose per-group check truncates exactly like the
        // interpreter.
        apply_cost(grp->cost);
        ctr.instructions += grp->count;
        impl.trace_stats.trace_instructions += grp->count;
        if (ctr.instructions + grp->count <= max_instructions) {
          ++impl.trace_stats.trace_execs;
          ip = mcode;
          goto member_dispatch;
        }
        fpc = cur_trace->entry_pc;
        cur_trace = nullptr;
        break;
      }

      m_corrupt:
        result.error = "corrupt micro-op stream"; // unreachable by decode
        goto run_end;

      group_done:
        if (truncated) {
          // mcode is the plain slots here (see group entry), so every
          // executed member charges exactly one IR instruction.
          for (const MicroInstr* m = mcode + start; m < stop; ++m) {
            apply_cost(static_cost(*m));
          }
          ctr.instructions += (stop - (mcode + start)) + 1;
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
        apply_cost(grp->cost);
        ctr.instructions += grp->count;
        if (cur_trace != nullptr) {
          // grp is the trace's whole-trace aggregate: the superblock ran
          // to its final terminator, retiring every constituent block.
          impl.trace_stats.trace_instructions += grp->count;
          cur_trace = nullptr;
        }
        fpc = next_pc;
        break;

      group_fault: {
        // A member faulted (or raised an error): reconstruct the itemized
        // accounting the interpreter would have produced — full charges
        // for the members before the faulting slot, then the faulting
        // instruction's partial charge (what it books before the fault
        // site). Every slot is one IR instruction whichever copy ran, and
        // the plain slots hold the per-instruction costs.
        //
        // Mid-trace, the completed predecessor blocks are charged by their
        // precomputed aggregate and the faulting block is itemized from its
        // own group's plain slots.
        const auto pc = static_cast<std::uint32_t>(ip - mcode);
        const MicroInstr* first = nullptr; // the block's first plain slot
        std::uint32_t done = 0;            // its members before the fault
        if (cur_trace != nullptr) {
          const Trace& tr = *cur_trace;
          const std::uint32_t bi = tr.block_of[pc];
          if (bi > 0) {
            const TraceBlock& prev = tr.blocks[bi - 1];
            apply_cost(prev.cum_cost);
            ctr.instructions += prev.cum_count;
            impl.trace_stats.trace_instructions += prev.cum_count;
          }
          first = dfn->plain.uops.data() + tr.blocks[bi].entry_pc + 1;
          done = pc - tr.blocks[bi].first_slot;
          cur_trace = nullptr;
        } else {
          first = dfn->plain.uops.data() + start;
          done = pc - start;
        }
        for (std::uint32_t k = 0; k < done; ++k) {
          apply_cost(static_cost(first[k]));
        }
        const StaticCost fc = static_cost(first[done]);
        if (partial == 2) {
          apply_cost(fc);
        } else if (partial == 1) {
          cycles += fc.cycles;
          ctr.hw_checked_accesses += fc.hw_checks;
        }
        ctr.instructions += done + 1;
        goto run_end;
      }
      }

      case UOp::kSegLoad: {
        std::uint64_t cost = 0;
        const Status status =
            impl.load_segment(static_cast<SegReg>(u.seg), regs[u.src0], cost);
        cycles += cost;
        checking_cy += cost;
        if (!status.ok()) {
          fail(status.fault(), u.src);
          goto run_end;
        }
        ++ctr.seg_reg_loads;
        ++fpc;
        break;
      }

      case UOp::kCallUser: {
        const ir::CallSite& site = dfn->fn->call_site(*u.src);
        ++ctr.calls;
        if (u.callee < 0) {
          result.error = "call to unknown function " + site.callee;
          goto run_end;
        }
        cycles += costs::kCallRet;
        stack.top().pos = fpc + 1; // return to the next micro-op
        const FrameCharge charge =
            stack.push(impl, static_cast<std::uint32_t>(u.callee), u.dst,
                       site.args, cycles);
        charge.book(cycles, runtime_cy, ctr);
        if (charge.overflow) {
          result.error = "stack overflow calling " + site.callee;
          goto run_end;
        }
        enter_top();
        break;
      }

      case UOp::kMalloc: {
        ++ctr.calls;
        const std::uint32_t bytes =
            u.src0 == ir::kNoReg ? 0 : regs[u.src0].bits;
        runtime::CashHeap::Object obj = impl.heap.allocate(bytes);
        cycles += obj.cycles;
        runtime_cy += obj.cycles;
        ++ctr.malloc_calls;
        if (obj.data == 0) {
          fail(Fault{FaultKind::kResourceExhausted, 0, 0,
                     "simulated heap exhausted: malloc(" +
                         std::to_string(bytes) + ")"},
               u.src);
          goto run_end;
        }
        regs[u.dst] = Value{obj.data, obj.info};
        ++fpc;
        break;
      }

      case UOp::kFree: {
        ++ctr.calls;
        const std::uint32_t ptr =
            u.src0 == ir::kNoReg ? 0 : regs[u.src0].bits;
        const std::uint64_t released = impl.heap.release(ptr);
        cycles += released;
        runtime_cy += released;
        ++fpc;
        break;
      }

      case UOp::kRet: {
        Value value;
        if (u.src0 != ir::kNoReg) {
          value = regs[u.src0];
        }
        cycles += costs::kCallRet;
        stack.pop(impl, value, cycles).book(cycles, runtime_cy, ctr);
        if (stack.empty()) {
          goto run_end;
        }
        load_top();
        break;
      }

      case UOp::kBlockEndError: {
        const ir::BasicBlock& block =
            dfn->fn->block(static_cast<ir::BlockId>(u.symbol));
        result.error = "fell off the end of block " + block.name + " in " +
                       dfn->fn->name;
        goto run_end;
      }

      default:
        result.error = "corrupt micro-op stream"; // unreachable by decode
        goto run_end;
    }
  }

run_end:
  impl.finish_run(result, cycles, checking_cy, shadow_cy, runtime_cy);
  result.trace_stats = impl.trace_stats;
  result.trace_stats.coverage =
      ctr.instructions == 0
          ? 0.0
          : static_cast<double>(impl.trace_stats.trace_instructions -
                                trace_instr_base) /
                static_cast<double>(ctr.instructions);
  return result;
}

#undef CASH_MEMBER_NEXT

} // namespace cash::vm
