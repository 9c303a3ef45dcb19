#include "vm/decode.hpp"

#include <limits>
#include <sstream>

#include "common/hot_inline.hpp"
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

// Cost of the kBin embedded in `u` (also inside every Fused*Bin* op). The
// division cost is charged even on a #DE fault (x86 pays for the attempt),
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
    // Fused superinstructions charge exactly the sum of their constituents
    // (tests/vm/static_cost_test.cpp pins this). Local-load/store
    // constituents are scalar by construction (fusion requires !is_ptr),
    // so their register_op_cost carries no ptr event.
    case UOp::kFusedLoadLocalBin:
      c = costs::register_op_cost() + bin_static_cost(u.bin_op, u.type);
      break;
    case UOp::kFusedBinStoreLocal:
      c = bin_static_cost(u.bin_op, u.type) + costs::register_op_cost();
      break;
    case UOp::kFusedLoadBinStore:
      c = costs::register_op_cost() + bin_static_cost(u.bin_op, u.type) +
          costs::register_op_cost();
      break;
    case UOp::kFusedCmpBranch:
      c = bin_static_cost(u.bin_op, u.type); // always a compare: kAluOp
      c.cycles += costs::kBranch;
      break;
    case UOp::kFusedPtrAddLoad:
      c = costs::register_op_cost() +
          costs::load_store_cost(u.is_ptr, u.rebased);
      break;
    case UOp::kFusedPtrAddBoundLoad:
      c = costs::register_op_cost() +
          costs::bound_check_cost(bound_kind(u.sub_op)) +
          costs::load_store_cost(u.is_ptr, u.rebased);
      break;
    case UOp::kBuiltin:
      c.calls = 1;
      c.cycles = builtin_cycles(u.builtin);
      break;
    default:
      // Itemized micro-ops account for themselves in the engine.
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
  std::vector<std::uint32_t> remap;
  std::vector<std::uint8_t> sym_kind;
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

// Decodes one function into its plain stream. Any precondition the
// interpreter silently assumes (register/slot/block ranges, builtin
// arities, resolvable globals) is checked here; a violation returns false,
// which marks the function undecodable, and the whole module falls back to
// the reference interpreter, preserving legacy behaviour exactly.
bool decode_plain(
    const ir::Module& module, const ir::Function& fn,
    const std::unordered_map<const ir::Function*, std::size_t>& fn_index,
    const std::vector<std::uint8_t>& sym_kind, UopStream& plain,
    std::vector<MicroInstr>& pending) {
  constexpr std::uint8_t kSymScalar = 1;
  constexpr std::uint8_t kSymArray = 2;

  const auto valid_reg = [&](ir::Reg r) { return r >= 0 && r < fn.next_reg; };
  const auto valid_slot = [&](std::int32_t s) {
    return s >= 0 && static_cast<std::size_t>(s) < fn.locals.size();
  };
  const auto valid_block = [&](ir::BlockId b) {
    return b >= 0 && static_cast<std::size_t>(b) < fn.blocks.size();
  };
  const auto valid_seg = [](std::int8_t s) { return s >= 0 && s < 6; };
  const auto sym_is = [&](ir::SymbolId s, std::uint8_t kind) {
    return s >= 0 && static_cast<std::size_t>(s) < sym_kind.size() &&
           sym_kind[static_cast<std::size_t>(s)] == kind;
  };

  if (!valid_block(fn.entry)) {
    return false;
  }
  for (const ir::Param& p : fn.params) {
    if (!valid_slot(p.slot)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
    if (fn.blocks[i] == nullptr ||
        fn.blocks[i]->id != static_cast<ir::BlockId>(i)) {
      return false;
    }
  }

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
    g.plain_first = static_cast<std::uint32_t>(plain.uops.size()) + 1;
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
    bool terminated = false;
    for (const Instr& in : block.instrs) {
      MicroInstr m;
      m.type = in.type;
      m.is_ptr = ir::is_pointer(in.type);
      m.synthetic = in.synthetic;
      m.src = &in;
      bool itemized = false;
      switch (in.op) {
        case Opcode::kConstInt:
          if (!valid_reg(in.dst)) return false;
          m.op = UOp::kConstInt;
          m.dst = in.dst;
          m.imm = static_cast<std::uint32_t>(in.int_imm);
          break;
        case Opcode::kConstFloat:
          if (!valid_reg(in.dst)) return false;
          m.op = UOp::kConstFloat;
          m.dst = in.dst;
          m.imm = std::bit_cast<std::uint32_t>(in.float_imm);
          break;
        case Opcode::kMove:
          if (!valid_reg(in.dst) || !valid_reg(in.src0)) return false;
          m.op = UOp::kMove;
          m.dst = in.dst;
          m.src0 = in.src0;
          break;
        case Opcode::kBin:
          if (!valid_reg(in.dst) || !valid_reg(in.src0) ||
              !valid_reg(in.src1)) {
            return false;
          }
          m.op = UOp::kBin;
          m.dst = in.dst;
          m.src0 = in.src0;
          m.src1 = in.src1;
          m.bin_op = in.bin_op;
          break;
        case Opcode::kUn:
          if (!valid_reg(in.dst) || !valid_reg(in.src0)) return false;
          m.op = UOp::kUn;
          m.dst = in.dst;
          m.src0 = in.src0;
          m.un_op = in.un_op;
          break;
        case Opcode::kLoad:
          if (!valid_reg(in.dst) || !valid_reg(in.src0)) return false;
          if (in.rebased && !valid_seg(in.seg)) return false;
          m.op = UOp::kLoad;
          m.dst = in.dst;
          m.src0 = in.src0;
          m.seg = static_cast<std::uint8_t>(in.rebased ? in.seg : 0);
          m.rebased = in.rebased;
          break;
        case Opcode::kStore:
          if (!valid_reg(in.src0) || !valid_reg(in.src1)) return false;
          if (in.rebased && !valid_seg(in.seg)) return false;
          m.op = UOp::kStore;
          m.src0 = in.src0;
          m.src1 = in.src1;
          m.seg = static_cast<std::uint8_t>(in.rebased ? in.seg : 0);
          m.rebased = in.rebased;
          break;
        case Opcode::kLoadLocal:
          if (!valid_reg(in.dst) || !valid_slot(in.slot)) return false;
          m.op = UOp::kLoadLocal;
          m.dst = in.dst;
          m.slot = in.slot;
          break;
        case Opcode::kStoreLocal:
          if (!valid_reg(in.src0) || !valid_slot(in.slot)) return false;
          m.op = UOp::kStoreLocal;
          m.src0 = in.src0;
          m.slot = in.slot;
          break;
        case Opcode::kLoadGlobal:
          if (!valid_reg(in.dst) || !sym_is(in.symbol, kSymScalar)) return false;
          m.op = UOp::kLoadGlobal;
          m.dst = in.dst;
          m.symbol = in.symbol;
          break;
        case Opcode::kStoreGlobal:
          if (!valid_reg(in.src0) || !sym_is(in.symbol, kSymScalar)) {
            return false;
          }
          m.op = UOp::kStoreGlobal;
          m.src0 = in.src0;
          m.symbol = in.symbol;
          break;
        case Opcode::kAddrLocal:
          if (!valid_reg(in.dst) || !valid_slot(in.slot)) return false;
          m.op = UOp::kAddrLocal;
          m.dst = in.dst;
          m.slot = in.slot;
          break;
        case Opcode::kAddrGlobal:
          if (!valid_reg(in.dst) ||
              (!sym_is(in.symbol, kSymArray) &&
               !sym_is(in.symbol, kSymScalar))) {
            return false;
          }
          m.op = UOp::kAddrGlobal;
          m.dst = in.dst;
          m.symbol = in.symbol;
          break;
        case Opcode::kPtrAdd:
          if (!valid_reg(in.dst) || !valid_reg(in.src0) ||
              !valid_reg(in.src1)) {
            return false;
          }
          m.op = UOp::kPtrAdd;
          m.dst = in.dst;
          m.src0 = in.src0;
          m.src1 = in.src1;
          break;
        case Opcode::kJump:
          if (!valid_block(in.target0)) return false;
          m.op = UOp::kJump;
          m.target0 = static_cast<std::uint32_t>(in.target0);
          break;
        case Opcode::kBranch:
          if (!valid_reg(in.src0) || !valid_block(in.target0) ||
              !valid_block(in.target1)) {
            return false;
          }
          m.op = UOp::kBranch;
          m.src0 = in.src0;
          m.target0 = static_cast<std::uint32_t>(in.target0);
          m.target1 = static_cast<std::uint32_t>(in.target1);
          break;
        case Opcode::kSegLoad:
          if (!valid_reg(in.src0) || !valid_seg(in.seg)) return false;
          m.op = UOp::kSegLoad;
          m.src0 = in.src0;
          m.seg = static_cast<std::uint8_t>(in.seg);
          itemized = true;
          break;
        case Opcode::kBoundCheckSw:
        case Opcode::kBoundCheckBnd:
        case Opcode::kBoundCheckShadow:
          if (!valid_reg(in.src0)) return false;
          // Interval form: src1 carries the range's upper address.
          if (in.src1 != ir::kNoReg && !valid_reg(in.src1)) return false;
          m.op = in.op == Opcode::kBoundCheckSw    ? UOp::kBoundSw
                 : in.op == Opcode::kBoundCheckBnd ? UOp::kBoundBnd
                                                   : UOp::kBoundShadow;
          m.src0 = in.src0;
          m.src1 = in.src1;
          break;
        case Opcode::kRet:
          if (in.src0 != ir::kNoReg && !valid_reg(in.src0)) return false;
          m.op = UOp::kRet;
          m.src0 = in.src0;
          itemized = true;
          break;
        case Opcode::kCall: {
          for (ir::Reg a : in.args) {
            if (!valid_reg(a)) return false;
          }
          const Builtin b = builtin_of(in.callee);
          const auto arg_or_none = [&](std::size_t i) {
            return in.args.size() > i ? in.args[i] : ir::kNoReg;
          };
          switch (b) {
            case Builtin::kNone: {
              const ir::Function* callee = module.find_function(in.callee);
              m.op = UOp::kCallUser;
              m.dst = in.dst; // may be kNoReg for void calls
              if (in.dst != ir::kNoReg && !valid_reg(in.dst)) return false;
              if (callee != nullptr) {
                m.callee = static_cast<std::int32_t>(fn_index.at(callee));
              }
              itemized = true;
              break;
            }
            case Builtin::kMalloc:
              if (!valid_reg(in.dst)) return false;
              m.op = UOp::kMalloc;
              m.dst = in.dst;
              m.src0 = arg_or_none(0);
              itemized = true;
              break;
            case Builtin::kFree:
              m.op = UOp::kFree;
              m.src0 = arg_or_none(0);
              itemized = true;
              break;
            case Builtin::kPow:
              if (!valid_reg(in.dst) || in.args.size() < 2) return false;
              m.op = UOp::kBuiltin;
              m.builtin = b;
              m.dst = in.dst;
              m.src0 = in.args[0];
              m.src1 = in.args[1];
              break;
            case Builtin::kPrintInt:
            case Builtin::kPrintFloat:
              if (in.args.empty()) return false;
              m.op = UOp::kBuiltin;
              m.builtin = b;
              m.src0 = in.args[0];
              break;
            case Builtin::kRand:
              if (!valid_reg(in.dst)) return false;
              m.op = UOp::kBuiltin;
              m.builtin = b;
              m.dst = in.dst;
              break;
            case Builtin::kSrand:
              m.op = UOp::kBuiltin;
              m.builtin = b;
              m.src0 = arg_or_none(0);
              break;
            default:
              // One-float-argument math builtins (sqrt/fabs/... and abs).
              if (!valid_reg(in.dst) || in.args.empty()) return false;
              m.op = UOp::kBuiltin;
              m.builtin = b;
              m.dst = in.dst;
              m.src0 = in.args[0];
              break;
          }
          break;
        }
      }
      if (itemized) {
        flush();
        plain.uops.push_back(m);
      } else {
        pending.push_back(m);
        if (m.op == UOp::kJump || m.op == UOp::kBranch) {
          // Terminators end the group so a group's aggregate never charges
          // for members control flow can skip. Anything after this in the
          // block is dead code; it decodes into unreachable groups.
          flush();
          terminated = true;
          continue;
        }
      }
      terminated = in.op == Opcode::kRet;
    }
    flush();
    if (!terminated) {
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

DecodedFunction decode_function(
    const ir::Module& module, const ir::Function& fn,
    const std::unordered_map<const ir::Function*, std::size_t>& fn_index,
    const std::vector<std::uint8_t>& sym_kind) {
  Scratch& tables = scratch();
  UopStream& plain = tables.stream;
  plain.uops.clear();
  plain.groups.clear();
  plain.block_entry.clear();
  DecodedFunction out;
  out.fn = &fn;
  out.ok =
      decode_plain(module, fn, fn_index, sym_kind, plain, tables.pending);
  copy_stream(plain, out.plain);
  return out;
}

// ---------------------------------------------------------------------------
// Superinstruction fusion. Runs once per decoded function, after the plain
// stream is final: dependent pairs/triples inside a group are merged into
// single fused micro-ops. Fusion is greedy left-to-right, 3-wide patterns
// before their 2-wide prefixes, and never crosses a group boundary (so a
// group's aggregate cost — always the plain sum — is unchanged). Every
// constituent's register/slot write is preserved by the fused handler, so
// the machine state after a fused op is bit-identical to the plain
// sequence even when later code reads an intermediate value.
// ---------------------------------------------------------------------------

// Tries to fuse the `n` remaining group members starting at `m[0]` into
// one superinstruction. Returns the number of members consumed (2 or 3)
// with `out` filled per the layout table in decode.hpp, or 0 when no
// pattern matches. The caller stamps out.aux (plain index of m[0]).
std::uint32_t try_fuse(const MicroInstr* m, std::uint32_t n,
                       MicroInstr& out) {
  const MicroInstr& a = m[0];
  const MicroInstr* b = n >= 2 ? &m[1] : nullptr;
  const MicroInstr* c = n >= 3 ? &m[2] : nullptr;

  const auto is_bound = [](UOp op) {
    return op == UOp::kBoundSw || op == UOp::kBoundBnd ||
           op == UOp::kBoundShadow;
  };
  const auto is_cmp = [](BinOp op) {
    return op == BinOp::kCmpEq || op == BinOp::kCmpNe ||
           op == BinOp::kCmpLt || op == BinOp::kCmpLe ||
           op == BinOp::kCmpGt || op == BinOp::kCmpGe;
  };
  const auto bin_reads = [](const MicroInstr& bin, std::int32_t reg) {
    return bin.src0 == reg || bin.src1 == reg;
  };

  if (c != nullptr) {
    // kLoadLocal + kBin reading it + kStoreLocal of the bin's result.
    // Scalar locals only: a pointer-typed local copy books a mode-scaled
    // ptr event, which would make the fused cost config-dependent.
    if (a.op == UOp::kLoadLocal && !a.is_ptr && b->op == UOp::kBin &&
        bin_reads(*b, a.dst) && c->op == UOp::kStoreLocal && !c->is_ptr &&
        c->src0 == b->dst) {
      out = *b;
      out.op = UOp::kFusedLoadBinStore;
      out.slot = a.slot;
      out.imm = static_cast<std::uint32_t>(a.dst);
      out.symbol = c->slot;
      out.src = a.src;
      return 3;
    }
    // kPtrAdd + kBound* on its result + kLoad through it. Interval checks
    // (src1 set) never fuse: the fused layout reuses src1 for the ptr-add
    // operands and the fused cost assumes the plain check.
    if (a.op == UOp::kPtrAdd && is_bound(b->op) && b->src0 == a.dst &&
        b->src1 == ir::kNoReg && c->op == UOp::kLoad && c->src0 == a.dst) {
      out = *c;
      out.op = UOp::kFusedPtrAddBoundLoad;
      out.sub_op = b->op;
      out.src0 = a.src0;
      out.src1 = a.src1;
      out.slot = a.dst;
      out.src = a.src;
      return 3;
    }
  }
  if (b == nullptr) {
    return 0;
  }
  // kPtrAdd + kLoad through it (unchecked and hardware-checked modes have
  // no bound micro-op between the two).
  if (a.op == UOp::kPtrAdd && b->op == UOp::kLoad && b->src0 == a.dst) {
    out = *b;
    out.op = UOp::kFusedPtrAddLoad;
    out.src0 = a.src0;
    out.src1 = a.src1;
    out.slot = a.dst;
    out.src = a.src;
    return 2;
  }
  // Scalar kLoadLocal + kBin reading it.
  if (a.op == UOp::kLoadLocal && !a.is_ptr && b->op == UOp::kBin &&
      bin_reads(*b, a.dst)) {
    out = *b;
    out.op = UOp::kFusedLoadLocalBin;
    out.slot = a.slot;
    out.imm = static_cast<std::uint32_t>(a.dst);
    out.src = a.src;
    return 2;
  }
  // kBin + scalar kStoreLocal of its result.
  if (a.op == UOp::kBin && b->op == UOp::kStoreLocal && !b->is_ptr &&
      b->src0 == a.dst) {
    out = a;
    out.op = UOp::kFusedBinStoreLocal;
    out.slot = b->slot;
    return 2;
  }
  // Compare + kBranch on its result. Compares only: they can never fault,
  // so the fused op is a pure terminator with no cold path.
  if (a.op == UOp::kBin && is_cmp(a.bin_op) && b->op == UOp::kBranch &&
      b->src0 == a.dst) {
    out = a;
    out.op = UOp::kFusedCmpBranch;
    out.target0 = b->target0;
    out.target1 = b->target1;
    return 2;
  }
  return 0;
}

// Builds fn.fused from fn.plain and fills fn.stats. Targets and block
// entries are remapped into the fused index space; group headers keep
// their IR-instruction count (and the plain aggregate cost) while imm
// becomes the fused member count.
void fuse_function(DecodedFunction& fn) {
  const UopStream& plain = fn.plain;
  Scratch& tables = scratch();
  UopStream& out = tables.stream;
  out.uops.clear();
  out.groups.clear();
  std::vector<std::uint32_t>& remap = tables.remap;
  remap.assign(plain.uops.size(), 0);
  std::size_t i = 0;
  while (i < plain.uops.size()) {
    const MicroInstr& u = plain.uops[i];
    remap[i] = static_cast<std::uint32_t>(out.uops.size());
    if (u.op != UOp::kGroup) {
      out.uops.push_back(u);
      ++i;
      continue;
    }
    const std::uint32_t first = static_cast<std::uint32_t>(i) + 1;
    const std::uint32_t n = u.imm;
    MicroInstr head = u;
    head.aux = static_cast<std::uint32_t>(out.groups.size());
    const std::size_t head_at = out.uops.size();
    out.uops.push_back(head);
    std::uint32_t j = 0;
    while (j < n) {
      const std::uint32_t at = first + j;
      remap[at] = static_cast<std::uint32_t>(out.uops.size());
      MicroInstr f;
      const std::uint32_t w = try_fuse(&plain.uops[at], n - j, f);
      if (w > 1) {
        f.aux = at;
        out.uops.push_back(f);
        fn.stats.fused_uops += 1;
        fn.stats.fused_instrs += w;
        j += w;
      } else {
        out.uops.push_back(plain.uops[at]);
        j += 1;
      }
    }
    fn.stats.foldable_instrs += n;
    out.uops[head_at].imm =
        static_cast<std::uint32_t>(out.uops.size() - head_at - 1);
    out.groups.push_back(plain.groups[u.aux]); // count/cost/plain_first kept
    i = static_cast<std::size_t>(first) + n;
  }
  // Retarget control flow into the fused index space. Targets are always
  // block entries — group headers, itemized ops or kBlockEndError — all of
  // which begin a fused-stream micro-op and so have remap entries.
  for (MicroInstr& m : out.uops) {
    if (m.op == UOp::kJump) {
      m.target0 = remap[m.target0];
    } else if (m.op == UOp::kBranch || m.op == UOp::kFusedCmpBranch) {
      m.target0 = remap[m.target0];
      m.target1 = remap[m.target1];
    }
  }
  out.block_entry.resize(plain.block_entry.size());
  for (std::size_t b = 0; b < plain.block_entry.size(); ++b) {
    out.block_entry[b] = remap[plain.block_entry[b]];
  }
  copy_stream(out, fn.fused);
}

} // namespace

DecodedProgram::DecodedProgram(const ir::Module& module) : module_(&module) {
  std::unordered_map<const ir::Function*, std::size_t> fn_index;
  fn_index.reserve(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    fn_index.emplace(module.functions[i].get(), i);
  }

  std::vector<std::uint8_t>& sym_kind = scratch().sym_kind;
  sym_kind.assign(
      module.next_symbol > 0 ? static_cast<std::size_t>(module.next_symbol)
                             : 0,
      0);
  for (const ir::GlobalVar& g : module.globals) {
    if (g.symbol >= 0 &&
        static_cast<std::size_t>(g.symbol) < sym_kind.size()) {
      sym_kind[static_cast<std::size_t>(g.symbol)] = g.is_array ? 2 : 1;
    }
  }

  ok_ = true;
  functions_.reserve(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    functions_.push_back(
        decode_function(module, *module.functions[i], fn_index, sym_kind));
    if (functions_.back().ok) {
      fuse_function(functions_.back());
    }
    ok_ = ok_ && functions_.back().ok;
  }
  index_ = std::move(fn_index);
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
// there. Which member stream runs — plain or fused — is chosen per frame
// from MachineConfig.enable_fusion; cold paths always itemize from the
// plain stream, so fused runs fault, truncate and charge exactly like
// unfused ones.
// ---------------------------------------------------------------------------

namespace {

// Executes one kBin-shaped operation (also embedded in every Fused*Bin*
// superinstruction). Returns 0 on success, 1 = integer division by zero,
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

// ---------------------------------------------------------------------------
// Hot-trace superblock formation (DESIGN.md §11). When a block's execution
// counter crosses MachineConfig::trace_threshold, the engine follows the
// recorded biased successor edges and splices up to kTraceMaxBlocks blocks'
// member micro-ops into one straight-line stream: interior kJumps vanish,
// interior branches become guard micro-ops whose biased arm falls through.
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

constexpr bool is_terminator(UOp op) noexcept {
  return op == UOp::kJump || op == UOp::kBranch ||
         op == UOp::kFusedCmpBranch;
}

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
  StaticCost cum;
  std::uint32_t cum_count = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::uint32_t bpc = chain[i];
    const MicroInstr& head = s.uops[bpc];
    const FoldedGroup& g = s.groups[head.aux];
    const std::uint32_t ordinal = static_cast<std::uint32_t>(i);
    const bool last = i + 1 == chain.size();

    std::uint32_t plain_done = 0;
    const std::uint32_t term_at = bpc + head.imm;
    for (std::uint32_t m = bpc + 1; m < term_at; ++m) {
      tr.uops.push_back(s.uops[m]);
      tr.block_of.push_back(ordinal);
      tr.plain_done.push_back(plain_done);
      plain_done += uop_width(s.uops[m].op);
    }
    const MicroInstr& term = s.uops[term_at];
    if (!last || closed) {
      // The chain continues past this block (to chain[i+1], or back to the
      // entry when the loop closes): the biased arm falls through, the
      // other arm becomes a guard's side exit. A kJump is elided entirely
      // — its one successor follows directly.
      if (term.op != UOp::kJump) {
        MicroInstr guard = term;
        guard.op = term.op == UOp::kBranch ? UOp::kGuardBranch
                                           : UOp::kGuardCmpBranch;
        const std::uint32_t next_blk = last ? entry : chain[i + 1];
        const bool biased_taken = next_blk == term.target0;
        guard.imm = biased_taken ? 1 : 0;
        guard.target0 = biased_taken ? term.target1 : term.target0;
        tr.uops.push_back(guard);
        tr.block_of.push_back(ordinal);
        tr.plain_done.push_back(plain_done);
      }
    } else {
      // Open chain's final block: the original terminator with
      // original-stream targets.
      tr.uops.push_back(term);
      tr.block_of.push_back(ordinal);
      tr.plain_done.push_back(plain_done);
    }

    cum += g.cost;
    cum_count += g.count;
    TraceBlock tb;
    tb.entry_pc = bpc;
    tb.plain_first = g.plain_first;
    tb.cum_cost = cum;
    tb.cum_count = cum_count;
    tr.blocks.push_back(tb);
  }
  if (closed) {
    MicroInstr loop;
    loop.op = UOp::kTraceLoop;
    tr.uops.push_back(loop);
    tr.block_of.push_back(static_cast<std::uint32_t>(chain.size() - 1));
    tr.plain_done.push_back(0);
  }
  tr.total.count = cum_count;
  tr.total.plain_first = tr.blocks.front().plain_first;
  tr.total.cost = cum;

  // Trace-time peephole: the straight-line stream exposes adjacent pairs
  // the block-local fusion pass cannot see (it stops at member lists and
  // never touches terminators). Rewrite only the first slot's opcode —
  // the second constituent keeps its own slot, operands and
  // block_of/plain_done entries, so the combined handlers fault by
  // advancing pc to the faulting slot and every cold path charges exactly
  // as before. Greedy left-to-right, pairs never overlap.
  for (std::size_t i = 0; i + 1 < tr.uops.size(); ++i) {
    const UOp a = tr.uops[i].op;
    const UOp b = tr.uops[i + 1].op;
    if (a == UOp::kBin && b == UOp::kBin) {
      if (i + 2 < tr.uops.size() && tr.uops[i + 2].op == UOp::kBin) {
        tr.uops[i].op = UOp::kTraceBinBinBin;
        i += 2;
        continue;
      }
      tr.uops[i].op = UOp::kTraceBinBin;
      ++i;
    } else if (a == UOp::kFusedLoadLocalBin && b == UOp::kGuardBranch) {
      tr.uops[i].op = UOp::kTraceLoadBinGuard;
      ++i;
    } else if (a == UOp::kFusedLoadLocalBin && b == UOp::kGuardCmpBranch) {
      tr.uops[i].op = UOp::kTraceLoadBinGuardCmp;
      ++i;
    } else if (a == UOp::kBin && b == UOp::kFusedPtrAddBoundLoad) {
      tr.uops[i].op = UOp::kTraceBinPtrAddBoundLoad;
      ++i;
    } else if (a == UOp::kFusedPtrAddBoundLoad && b == UOp::kBin) {
      tr.uops[i].op = UOp::kTracePtrAddBoundLoadBin;
      ++i;
    } else if (a == UOp::kBin && b == UOp::kFusedPtrAddLoad) {
      tr.uops[i].op = UOp::kTraceBinPtrAddLoad;
      ++i;
    } else if (a == UOp::kFusedPtrAddLoad && b == UOp::kBin) {
      tr.uops[i].op = UOp::kTracePtrAddLoadBin;
      ++i;
    } else if (a == UOp::kFusedLoadBinStore &&
               b == UOp::kFusedLoadLocalBin) {
      if (i + 2 < tr.uops.size() &&
          tr.uops[i + 2].op == UOp::kGuardBranch) {
        tr.uops[i].op = UOp::kTraceLoadBinStoreLoadBinGuard;
        i += 2;
        continue;
      }
      tr.uops[i].op = UOp::kTraceLoadBinStoreLoadBin;
      ++i;
    } else if (a == UOp::kBin &&
               (b == UOp::kBoundSw || b == UOp::kBoundBnd ||
                b == UOp::kBoundShadow) &&
               i + 2 < tr.uops.size() &&
               tr.uops[i + 2].op == UOp::kStore) {
      tr.uops[i].op = UOp::kTraceBinBoundStore;
      i += 2;
    } else if (a == UOp::kUn && b == UOp::kBin) {
      tr.uops[i].op = UOp::kTraceUnBin;
      ++i;
    } else if (a == UOp::kBin && b == UOp::kFusedBinStoreLocal) {
      tr.uops[i].op = UOp::kTraceBinBinStoreLocal;
      ++i;
    } else if (a == UOp::kBin && b == UOp::kStore) {
      tr.uops[i].op = UOp::kTraceBinStore;
      ++i;
    } else if (a == UOp::kFusedLoadLocalBin && b == UOp::kBin) {
      tr.uops[i].op = UOp::kTraceLoadBinBin;
      ++i;
    } else if (a == UOp::kFusedLoadLocalBin &&
               b == UOp::kFusedBinStoreLocal) {
      tr.uops[i].op = UOp::kTraceLoadBinBinStoreLocal;
      ++i;
    }
  }

  const std::int32_t idx = static_cast<std::int32_t>(ts.traces.size());
  ts.traces.push_back(std::move(tr));
  ts.trace_at[entry] = idx;
  ++stats.traces_formed;
  return idx;
}

} // namespace

// Handler chaining: in threaded mode every handler ends in its own
// indirect branch off the dispatch table; the portable fallback funnels
// back through the member_dispatch switch.
#if CASH_THREADED_DISPATCH
#define CASH_MEMBER_NEXT()                                       \
  do {                                                           \
    if (++pc >= end) goto group_done;                            \
    goto* kDispatch[static_cast<std::size_t>(mcode[pc].op)];     \
  } while (0)
#else
#define CASH_MEMBER_NEXT() \
  do {                     \
    ++pc;                  \
    goto member_dispatch;  \
  } while (0)
#endif

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

  // One stream choice serves the whole run: the image is immutable and
  // both streams are always present, so this is pure selection.
  const bool fusion_on = impl.config.enable_fusion;

  // Hot-trace superblock engine (DESIGN.md §11): same per-run gating shape
  // as the other transparent layers. The trace cache lives on the machine
  // and persists across runs and restores; coverage is reported per run.
  const bool trace_on =
      impl.config.enable_trace && impl.config.trace_threshold != 0;
  const std::uint32_t trace_threshold = impl.config.trace_threshold;
  if (trace_on && impl.trace_fns.size() != prog.functions().size()) {
    impl.trace_fns.resize(prog.functions().size());
  }
  const std::uint64_t trace_instr_base = impl.trace_stats.trace_instructions;

  // The top frame, cached in locals the dispatch loop reads; load_top()
  // re-derives them after every push and pop (the stack's arenas move
  // when they grow). fpc is the frame's micro-op index in its stream.
  CallStack& stack = impl.stack;
  const DecodedFunction* dfn = nullptr;
  const UopStream* stream = nullptr; // plain or fused, fixed per run
  FnTraceState* tstate = nullptr;    // null when the trace engine is off
  std::uint32_t fpc = 0;
  Value* regs = nullptr;
  Value* slots = nullptr;
  Value* local_arrays = nullptr;
  const auto load_top = [&] {
    const CallFrame& top = stack.top();
    dfn = &prog.functions()[top.fn_index];
    stream = fusion_on ? &dfn->fused : &dfn->plain;
    fpc = top.pos;
    regs = stack.regs(top);
    slots = frame_slots(regs, *dfn->fn);
    local_arrays = frame_arrays(regs, *dfn->fn);
    if (trace_on) {
      FnTraceState& ts = impl.trace_fns[top.fn_index];
      if (ts.stream != stream) {
        // First use: size the state to the active stream.
        ts.stream = stream;
        ts.hot.assign(stream->uops.size(), 0);
        ts.edges.assign(stream->uops.size(), TraceEdge{});
        ts.trace_at.assign(stream->uops.size(), kTraceNone);
        ts.traces.clear();
      }
      tstate = &ts;
    }
  };
  // Enters the callee the stack just pushed, at its entry block.
  const auto enter_top = [&] {
    load_top();
    fpc = stream->block_entry[static_cast<std::size_t>(dfn->fn->entry)];
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
  const MicroInstr* pcode = nullptr; // plain constituents (cold paths)
  const FoldedGroup* grp = nullptr;
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  std::uint32_t pc = 0;
  std::uint32_t next_pc = 0;
  std::uint32_t pstart = 0;    // plain index of the group's first member
  std::uint32_t fault_sub = 0; // faulting constituent within a fused op
  int partial = 0;             // fault charge: 0 = none, 1 = mem, 2 = full
  bool truncated = false;
  const Trace* cur_trace = nullptr; // active superblock (null otherwise)
  TraceEdge* brec = nullptr;        // bias recording base; null in traces
                                    // (trace-local pcs would mis-index it)

  // Loads through `v`'s segment/rebase into regs[v.dst]; `addr` is the
  // pointer value (for plain kLoad that is regs[v.src0], for fused ops the
  // just-computed ptr-add result). Returns 0 on success, 1 after an MMU
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

  // Software-visible bound check (kBoundSw/kBoundBnd/kBoundShadow, plain
  // or fused via sub_op). True when the check fired; calls fail() itself.
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
  // Label-address dispatch table, indexed by UOp (CASH_UOP_LIST's label
  // column). Group headers and itemized micro-ops never appear as group
  // members; they map to the corrupt-stream handler.
  static const void* const kDispatch[] = {
#define CASH_UOP_LABEL(name, width, label) &&label,
      CASH_UOP_LIST(CASH_UOP_LABEL)
#undef CASH_UOP_LABEL
  };
#endif

  for (;;) {
    const MicroInstr* code = stream->uops.data();
    const MicroInstr& u = code[fpc];
    switch (u.op) {
      case UOp::kGroup: {
        if (tstate != nullptr) {
          FnTraceState& ts = *tstate;
          std::int32_t ti = ts.trace_at[fpc];
          if (ti == kTraceNone && ++ts.hot[fpc] == trace_threshold) {
            ti = try_form_trace(ts, *stream, fpc, impl.trace_stats);
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
              pcode = dfn->plain.uops.data();
              mcode = tr.uops.data();
              end = static_cast<std::uint32_t>(tr.uops.size());
              next_pc = fpc; // the final terminator always overwrites
              partial = 0;
              fault_sub = 0;
              truncated = false;
              brec = nullptr;
              pc = 0;
              goto member_dispatch;
            }
          }
          brec = ts.edges.data();
        } else {
          brec = nullptr;
        }
        cur_trace = nullptr;
        grp = &stream->groups[u.aux];
        pcode = dfn->plain.uops.data();
        pstart = grp->plain_first;
        start = fpc + 1;
        end = start + u.imm;
        next_pc = end;
        partial = 0;
        fault_sub = 0;
        truncated = false;
        mcode = code;
        if (ctr.instructions + grp->count > max_instructions) {
          // The budget trips mid-group: run only the IR instructions the
          // interpreter would have executed (the terminator, always last,
          // is never among them), itemized from the plain stream — fused
          // members are not 1:1 with instructions, plain members are.
          mcode = pcode;
          start = pstart;
          end = pstart + static_cast<std::uint32_t>(max_instructions -
                                                    ctr.instructions);
          truncated = true;
        }
        pc = start;
        goto member_dispatch;

      member_dispatch:
        if (pc >= end) goto group_done;
#if CASH_THREADED_DISPATCH
        goto* kDispatch[static_cast<std::size_t>(mcode[pc].op)];
#else
        switch (mcode[pc].op) {
#define CASH_UOP_CASE(name, width, label) \
  case UOp::name:                         \
    goto label;
          CASH_UOP_LIST(CASH_UOP_CASE)
#undef CASH_UOP_CASE
          default: goto m_corrupt;
        }
#endif

      m_const: {
        const MicroInstr& v = mcode[pc];
        regs[v.dst] = Value{v.imm, 0};
      }
        CASH_MEMBER_NEXT();

      m_move: {
        const MicroInstr& v = mcode[pc];
        regs[v.dst] = regs[v.src0];
      }
        CASH_MEMBER_NEXT();

      m_bin: {
        const MicroInstr& v = mcode[pc];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_un: {
        const MicroInstr& v = mcode[pc];
        const Value a = regs[v.src0];
        Value out;
        switch (v.un_op) {
          case UnOp::kNeg:
            out = v.type == ir::Type::kFloat ? from_float(-as_float(a))
                                             : from_int(-as_int(a));
            break;
          case UnOp::kLogicalNot: out = from_int(as_int(a) == 0); break;
          case UnOp::kBitNot:     out = from_int(~as_int(a)); break;
          case UnOp::kIntToFloat:
            out = from_float(static_cast<float>(as_int(a)));
            break;
          case UnOp::kFloatToInt:
            out = from_int(static_cast<std::int32_t>(as_float(a)));
            break;
        }
        regs[v.dst] = out;
      }
        CASH_MEMBER_NEXT();
      m_load: {
        const MicroInstr& v = mcode[pc];
        const int st = exec_load(v, regs[v.src0], v.src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_store: {
        const MicroInstr& v = mcode[pc];
        const int st = exec_store(v, regs[v.src0], regs[v.src1], v.src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_load_local: {
        const MicroInstr& v = mcode[pc];
        regs[v.dst] = slots[v.slot];
      }
        CASH_MEMBER_NEXT();

      m_store_local: {
        const MicroInstr& v = mcode[pc];
        slots[v.slot] = regs[v.src0];
      }
        CASH_MEMBER_NEXT();

      m_load_global: {
        const MicroInstr& v = mcode[pc];
        const std::uint32_t addr = flat_scalar[v.symbol];
        Result<std::uint32_t> loaded = mmu.read32_linear(addr);
        if (!loaded.ok()) {
          fail(loaded.fault(), v.src);
          partial = 0;
          goto group_fault;
        }
        std::uint32_t info = 0;
        if (v.is_ptr) {
          const auto it = mem_ptr_info.find(addr);
          info = it != mem_ptr_info.end() ? it->second : 0;
        }
        regs[v.dst] = Value{loaded.value(), info};
      }
        CASH_MEMBER_NEXT();

      m_store_global: {
        const MicroInstr& v = mcode[pc];
        const std::uint32_t addr = flat_scalar[v.symbol];
        Status status = mmu.write32_linear(addr, regs[v.src0].bits);
        if (!status.ok()) {
          fail(status.fault(), v.src);
          partial = 0;
          goto group_fault;
        }
        if (v.is_ptr) {
          mem_ptr_info[addr] = regs[v.src0].info;
        }
      }
        CASH_MEMBER_NEXT();

      m_addr_local: {
        const MicroInstr& v = mcode[pc];
        regs[v.dst] = local_arrays[v.slot];
      }
        CASH_MEMBER_NEXT();

      m_addr_global: {
        const MicroInstr& v = mcode[pc];
        regs[v.dst] = Value{flat_gdata[v.symbol], flat_ginfo[v.symbol]};
      }
        CASH_MEMBER_NEXT();

      m_ptr_add: {
        const MicroInstr& v = mcode[pc];
        const Value base = regs[v.src0];
        regs[v.dst] = Value{base.bits + regs[v.src1].bits, base.info};
      }
        CASH_MEMBER_NEXT();

      m_bound: {
        const MicroInstr& v = mcode[pc];
        const bool fired =
            v.src1 != ir::kNoReg
                ? bound_fault_interval(v.op, regs[v.src0], regs[v.src1],
                                       v.src)
                : bound_fault(v.op, regs[v.src0], v.src);
        if (fired) {
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();
      m_builtin: {
        const MicroInstr& v = mcode[pc];
        run_builtin(v.builtin, regs, v.dst, v.src0, v.src1, output,
                    impl.rng_state);
      }
        CASH_MEMBER_NEXT();

      m_jump:
        next_pc = mcode[pc].target0;
        goto group_done;

      m_branch: {
        const MicroInstr& v = mcode[pc];
        const bool taken = as_int(regs[v.src0]) != 0;
        if (brec != nullptr) {
          TraceEdge& e = brec[pc];
          ++(taken ? e.taken : e.not_taken);
        }
        next_pc = taken ? v.target0 : v.target1;
        goto group_done;
      }

      // --- fused superinstructions. Each preserves every constituent's
      // register/slot write and, on a fault, records which constituent
      // faulted (fault_sub) so group_fault can reconstruct the itemized
      // charge from the plain stream. Fault context comes from the
      // constituent's own source instruction: pcode[v.aux + k].src.

      m_fused_load_local_bin: {
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_fused_bin_store_local: {
        const MicroInstr& v = mcode[pc];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux].src);
          partial = 2;
          fault_sub = 0;
          goto group_fault;
        }
        slots[v.slot] = out;
      }
        CASH_MEMBER_NEXT();

      m_fused_load_bin_store: {
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        slots[v.symbol] = out;
      }
        CASH_MEMBER_NEXT();

      m_fused_cmp_branch: {
        const MicroInstr& v = mcode[pc];
        Value out;
        (void)exec_bin(v, regs[v.src0], regs[v.src1], out); // compares
                                                            // never fault
        regs[v.dst] = out;
        const bool taken = out.bits != 0;
        if (brec != nullptr) {
          TraceEdge& e = brec[pc];
          ++(taken ? e.taken : e.not_taken);
        }
        next_pc = taken ? v.target0 : v.target1;
        goto group_done;
      }

      m_fused_ptr_add_load: {
        const MicroInstr& v = mcode[pc];
        const Value base = regs[v.src0];
        const Value addr{base.bits + regs[v.src1].bits, base.info};
        regs[v.slot] = addr;
        const int st = exec_load(v, addr, pcode[v.aux + 1].src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          fault_sub = 1;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_fused_ptr_add_bound_load: {
        const MicroInstr& v = mcode[pc];
        const Value base = regs[v.src0];
        const Value addr{base.bits + regs[v.src1].bits, base.info};
        regs[v.slot] = addr;
        if (bound_fault(v.sub_op, addr, pcode[v.aux + 1].src)) {
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const int st = exec_load(v, addr, pcode[v.aux + 2].src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          fault_sub = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      // --- trace-only micro-ops (superblock streams; DESIGN.md §11).
      // Block boundaries carry no in-stream bookkeeping: the cold paths
      // below reconstruct exact charges from the trace's per-uop
      // block_of/plain_done tables instead. ---

      m_guard_branch: {
        const MicroInstr& v = mcode[pc];
        if ((as_int(regs[v.src0]) != 0) == (v.imm != 0)) {
          CASH_MEMBER_NEXT(); // biased arm: stay on the trace
        }
        next_pc = v.target0;
        goto trace_exit;
      }

      m_guard_cmp_branch: {
        const MicroInstr& v = mcode[pc];
        Value out;
        (void)exec_bin(v, regs[v.src0], regs[v.src1], out); // compares
                                                            // never fault
        regs[v.dst] = out;
        if ((out.bits != 0) == (v.imm != 0)) {
          CASH_MEMBER_NEXT();
        }
        next_pc = v.target0;
        goto trace_exit;
      }

      trace_exit: {
        // A guard left the superblock. The guard is its block's
        // terminator, so blocks [0..block_of[pc]] completed in full —
        // charge their precomputed aggregate and resume normal dispatch at
        // the off-trace target with exact machine state.
        const TraceBlock& tb = cur_trace->blocks[cur_trace->block_of[pc]];
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
          pc = 0;
          goto member_dispatch;
        }
        fpc = cur_trace->entry_pc;
        cur_trace = nullptr;
        break;
      }

      // --- trace-time peephole superinstructions. Each executes the op in
      // its own slot plus the constituent in the following slot; on a
      // fault, pc advances to the faulting slot so the per-slot
      // block_of/plain_done tables itemize it exactly as unfused dispatch
      // would have. ---

      m_trace_bin_bin: {
        const MicroInstr& v = mcode[pc];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          ++pc; // the second constituent's slot
          bin_fail(st, w.src);
          partial = 2;
          goto group_fault;
        }
        ++pc;
      }
        CASH_MEMBER_NEXT();

      m_trace_load_bin_guard: {
        // kFusedLoadLocalBin semantics, then its block's guard terminator:
        // the pair shares one dispatch on the biased path.
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& g = mcode[pc + 1];
        ++pc; // the guard's slot (it terminates the same block)
        if ((as_int(regs[g.src0]) != 0) == (g.imm != 0)) {
          CASH_MEMBER_NEXT();
        }
        next_pc = g.target0;
        goto trace_exit;
      }

      m_trace_bin_pabl: {
        const MicroInstr& v = mcode[pc];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the fused memory op's slot
        const Value base = regs[w.src0];
        const Value addr{base.bits + regs[w.src1].bits, base.info};
        regs[w.slot] = addr;
        if (bound_fault(w.sub_op, addr, pcode[w.aux + 1].src)) {
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const int st2 = exec_load(w, addr, pcode[w.aux + 2].src);
        if (st2 != 0) {
          partial = st2 == 1 ? 1 : 0;
          fault_sub = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_pabl_bin: {
        const MicroInstr& v = mcode[pc];
        const Value base = regs[v.src0];
        const Value addr{base.bits + regs[v.src1].bits, base.info};
        regs[v.slot] = addr;
        if (bound_fault(v.sub_op, addr, pcode[v.aux + 1].src)) {
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        int st = exec_load(v, addr, pcode[v.aux + 2].src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          fault_sub = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the trailing kBin's slot
        Value out;
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, w.src);
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_bin_pal: {
        const MicroInstr& v = mcode[pc];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the fused memory op's slot
        const Value base = regs[w.src0];
        const Value addr{base.bits + regs[w.src1].bits, base.info};
        regs[w.slot] = addr;
        const int st2 = exec_load(w, addr, pcode[w.aux + 1].src);
        if (st2 != 0) {
          partial = st2 == 1 ? 1 : 0;
          fault_sub = 1;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_pal_bin: {
        const MicroInstr& v = mcode[pc];
        const Value base = regs[v.src0];
        const Value addr{base.bits + regs[v.src1].bits, base.info};
        regs[v.slot] = addr;
        int st = exec_load(v, addr, pcode[v.aux + 1].src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the trailing kBin's slot
        Value out;
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, w.src);
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_bin_bin_bin: {
        for (int sub = 0; sub < 3; ++sub) {
          const MicroInstr& v = mcode[pc];
          Value out;
          const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
          regs[v.dst] = out;
          if (st != 0) {
            bin_fail(st, v.src);
            partial = 2;
            goto group_fault;
          }
          if (sub < 2) ++pc; // each constituent faults at its own slot
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_lbs_llb: {
        // kFusedLoadBinStore semantics, then the kFusedLoadLocalBin in the
        // next slot.
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        slots[v.symbol] = out;
        const MicroInstr& w = mcode[pc + 1];
        ++pc;
        regs[w.imm] = slots[w.slot];
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[w.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_bin_bsl: {
        const MicroInstr& v = mcode[pc];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kFusedBinStoreLocal's slot
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[w.aux].src);
          partial = 2;
          goto group_fault;
        }
        slots[w.slot] = out;
      }
        CASH_MEMBER_NEXT();

      m_trace_bin_store: {
        const MicroInstr& v = mcode[pc];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kStore's slot
        st = exec_store(w, regs[w.src0], regs[w.src1], w.src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_llb_bin: {
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kBin's slot
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, w.src);
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_llb_bsl: {
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kFusedBinStoreLocal's slot
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[w.aux].src);
          partial = 2;
          goto group_fault;
        }
        slots[w.slot] = out;
      }
        CASH_MEMBER_NEXT();

      m_trace_lbs_llb_guard: {
        // The canonical loop tail in one dispatch: kFusedLoadBinStore +
        // kFusedLoadLocalBin + the block's guard terminator.
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        slots[v.symbol] = out;
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kFusedLoadLocalBin's slot
        regs[w.imm] = slots[w.slot];
        st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[w.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& g = mcode[pc + 1];
        ++pc; // the guard's slot
        if ((as_int(regs[g.src0]) != 0) == (g.imm != 0)) {
          CASH_MEMBER_NEXT();
        }
        next_pc = g.target0;
        goto trace_exit;
      }

      m_trace_bin_bound_store: {
        // Checked-store idiom: address arithmetic + kBound + the kStore it
        // protects.
        const MicroInstr& v = mcode[pc];
        Value out;
        int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, v.src);
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kBound*'s slot
        const bool fired =
            w.src1 != ir::kNoReg
                ? bound_fault_interval(w.op, regs[w.src0], regs[w.src1],
                                       w.src)
                : bound_fault(w.op, regs[w.src0], w.src);
        if (fired) {
          partial = 2;
          goto group_fault;
        }
        const MicroInstr& u = mcode[pc + 1];
        ++pc; // the kStore's slot
        st = exec_store(u, regs[u.src0], regs[u.src1], u.src);
        if (st != 0) {
          partial = st == 1 ? 1 : 0;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_un_bin: {
        const MicroInstr& v = mcode[pc];
        {
          const Value a = regs[v.src0];
          Value out;
          switch (v.un_op) {
            case UnOp::kNeg:
              out = v.type == ir::Type::kFloat ? from_float(-as_float(a))
                                               : from_int(-as_int(a));
              break;
            case UnOp::kLogicalNot: out = from_int(as_int(a) == 0); break;
            case UnOp::kBitNot:     out = from_int(~as_int(a)); break;
            case UnOp::kIntToFloat:
              out = from_float(static_cast<float>(as_int(a)));
              break;
            case UnOp::kFloatToInt:
              out = from_int(static_cast<std::int32_t>(as_float(a)));
              break;
          }
          regs[v.dst] = out; // kUn never faults
        }
        const MicroInstr& w = mcode[pc + 1];
        ++pc; // the kBin's slot
        Value out;
        const int st = exec_bin(w, regs[w.src0], regs[w.src1], out);
        regs[w.dst] = out;
        if (st != 0) {
          bin_fail(st, w.src);
          partial = 2;
          goto group_fault;
        }
      }
        CASH_MEMBER_NEXT();

      m_trace_llb_guard_cmp: {
        // kFusedLoadLocalBin + its block's kGuardCmpBranch terminator.
        const MicroInstr& v = mcode[pc];
        regs[v.imm] = slots[v.slot];
        Value out;
        const int st = exec_bin(v, regs[v.src0], regs[v.src1], out);
        regs[v.dst] = out;
        if (st != 0) {
          bin_fail(st, pcode[v.aux + 1].src);
          partial = 2;
          fault_sub = 1;
          goto group_fault;
        }
        const MicroInstr& g = mcode[pc + 1];
        ++pc; // the guard's slot
        (void)exec_bin(g, regs[g.src0], regs[g.src1], out); // compares
                                                            // never fault
        regs[g.dst] = out;
        if ((out.bits != 0) == (g.imm != 0)) {
          CASH_MEMBER_NEXT();
        }
        next_pc = g.target0;
        goto trace_exit;
      }

      m_corrupt:
        result.error = "corrupt micro-op stream"; // unreachable by decode
        goto run_end;

      group_done:
        if (truncated) {
          // mcode is the plain stream here (see group entry), so every
          // executed member charges exactly one IR instruction.
          for (std::uint32_t i = start; i < end; ++i) {
            apply_cost(static_cost(mcode[i]));
          }
          ctr.instructions += (end - start) + 1;
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
        // for the completed IR-instruction prefix, then the faulting
        // instruction's partial charge (what it books before the fault
        // site). Completed members cover uop_width() instructions each and
        // fault_sub selects the faulting constituent inside a fused
        // member; the plain stream always holds the per-instruction costs.
        //
        // Mid-trace faults use the trace's per-uop tables instead: charge
        // the completed predecessor blocks' precomputed aggregate, then
        // itemize the faulting block from plain_done[pc] — the number of
        // plain instructions that completed inside the block before the
        // faulting member.
        if (cur_trace != nullptr) {
          const Trace& tr = *cur_trace;
          const std::uint32_t bi = tr.block_of[pc];
          if (bi > 0) {
            const TraceBlock& prev = tr.blocks[bi - 1];
            apply_cost(prev.cum_cost);
            ctr.instructions += prev.cum_count;
            impl.trace_stats.trace_instructions += prev.cum_count;
          }
          const std::uint32_t fdone = tr.plain_done[pc] + fault_sub;
          const std::uint32_t fstart = tr.blocks[bi].plain_first;
          for (std::uint32_t k = 0; k < fdone; ++k) {
            apply_cost(static_cost(pcode[fstart + k]));
          }
          const StaticCost tfc = static_cost(pcode[fstart + fdone]);
          if (partial == 2) {
            apply_cost(tfc);
          } else if (partial == 1) {
            cycles += tfc.cycles;
            ctr.hw_checked_accesses += tfc.hw_checks;
          }
          ctr.instructions += fdone + 1;
          cur_trace = nullptr;
          goto run_end;
        }
        std::uint32_t done = 0;
        for (std::uint32_t i = start; i < pc; ++i) {
          done += uop_width(mcode[i].op);
        }
        done += fault_sub;
        for (std::uint32_t k = 0; k < done; ++k) {
          apply_cost(static_cost(pcode[pstart + k]));
        }
        const StaticCost fc = static_cost(pcode[pstart + done]);
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
        if (++ctr.instructions > max_instructions) {
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
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
        if (++ctr.instructions > max_instructions) {
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
        const Instr& in = *u.src;
        ++ctr.calls;
        if (u.callee < 0) {
          result.error = "call to unknown function " + in.callee;
          goto run_end;
        }
        cycles += costs::kCallRet;
        stack.top().pos = fpc + 1; // return to the next micro-op
        const FrameCharge charge =
            stack.push(impl, static_cast<std::uint32_t>(u.callee), u.dst,
                       in.args, cycles);
        charge.book(cycles, runtime_cy, ctr);
        if (charge.overflow) {
          result.error = "stack overflow calling " + in.callee;
          goto run_end;
        }
        enter_top();
        break;
      }

      case UOp::kMalloc: {
        if (++ctr.instructions > max_instructions) {
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
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
        if (++ctr.instructions > max_instructions) {
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
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
        if (++ctr.instructions > max_instructions) {
          result.error =
              "instruction budget exceeded (possible infinite loop)";
          goto run_end;
        }
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
