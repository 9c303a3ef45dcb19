#include "passes/elide.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/dense_table.hpp"
#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "passes/array_use.hpp"

namespace cash::passes {

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::BlockId;
using ir::Function;
using ir::Instr;
using ir::kNoBlock;
using ir::kNoLoop;
using ir::kNoReg;
using ir::kNoSymbol;
using ir::LoopId;
using ir::Opcode;
using ir::Reg;
using ir::SymbolId;

// Coefficients and constants beyond this magnitude abandon the analysis:
// everything the pass proves assumes the affine arithmetic it reasons about
// never wraps the 32-bit address computation the program actually performs.
constexpr std::int64_t kMagnitudeCap = std::int64_t{1} << 28;

// How deep the affine evaluation of a register follows its definitions.
constexpr int kMaxEvalDepth = 64;

// A position inside the function: (block, instruction index). Stable across
// the whole analysis because transformations only set flags until the final
// insertion step.
struct Site {
  BlockId block{kNoBlock};
  int index{-1};
};

// The slot coefficients of an affine form, sorted by slot (the order in
// which materialised code visits them). Affine forms here
// have a handful of terms, so a flat vector beats a tree.
class SlotCoeffs {
 public:
  using Term = std::pair<std::int32_t, std::int64_t>; // (slot, coefficient)
  using const_iterator = std::vector<Term>::const_iterator;

  const_iterator begin() const { return terms_.begin(); }
  const_iterator end() const { return terms_.end(); }
  std::size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }
  const_iterator find(std::int32_t slot) const {
    const auto it = lower_bound(slot);
    return it != terms_.end() && it->first == slot ? it : terms_.end();
  }
  std::size_t count(std::int32_t slot) const {
    return find(slot) != end() ? 1 : 0;
  }
  // The coefficient of a slot that is present.
  std::int64_t at(std::int32_t slot) const { return find(slot)->second; }
  // The coefficient of `slot`, inserted as 0 when absent.
  std::int64_t& operator[](std::int32_t slot) {
    auto it = terms_.begin() + (lower_bound(slot) - terms_.cbegin());
    if (it == terms_.end() || it->first != slot) {
      it = terms_.insert(it, Term{slot, 0});
    }
    return it->second;
  }
  void erase(std::int32_t slot) {
    const auto it = find(slot);
    if (it != end()) {
      terms_.erase(it);
    }
  }
  void clear() { terms_.clear(); }
  bool operator==(const SlotCoeffs&) const = default;

 private:
  const_iterator lower_bound(std::int32_t slot) const {
    return std::lower_bound(
        terms_.begin(), terms_.end(), slot,
        [](const Term& t, std::int32_t s) { return t.first < s; });
  }

  std::vector<Term> terms_;
};

// A symbolic value as an affine form over local scalar slots:
//   constant + sum(coeff[slot] * value-of-slot-at-the-contributing-load).
// `loads` records which kLoadLocal sites contributed each leaf, so callers
// can decide whether the slot's value at those sites is the value they need
// (loop-invariant slot, induction variable read before its step, ...).
struct Linear {
  bool ok{false};
  std::int64_t constant{0};
  SlotCoeffs coeffs;
  std::vector<std::pair<std::int32_t, Site>> loads; // (slot, load site)

  // Back to the failed, empty form, keeping the storage.
  void reset() {
    ok = false;
    constant = 0;
    coeffs.clear();
    loads.clear();
  }
};

// Resolved shape of a memory-access address: a base object plus an affine
// byte offset.
struct AddrInfo {
  bool ok{false};
  enum class Base : std::uint8_t { kLocalArray, kGlobalArray, kPointerSlot };
  Base base{Base::kLocalArray};
  std::int32_t base_slot{-1};     // local array / pointer slot
  SymbolId base_global{kNoSymbol};
  Site base_load;                 // kPointerSlot: the contributing load
  Linear offset;                  // bytes from the base pointer

  void reset() {
    ok = false;
    base = Base::kLocalArray;
    base_slot = -1;
    base_global = kNoSymbol;
    base_load = Site{};
    offset.reset();
  }
};

// Recognised counted-loop induction variable: a scalar slot with exactly one
// in-loop store `s = s + step`, whose header test compares `s + cond_off`
// against a loop-invariant bound.
struct IvInfo {
  bool ok{false};
  std::int32_t slot{-1};
  std::int64_t step{0};           // nonzero; sign gives the direction
  Site step_store;
  Linear bound;                   // invariant side of the header compare
  std::int64_t cond_off{0};       // `s + cond_off OP bound` continues the loop
  BinOp cmp{BinOp::kCmpLt};       // normalized continue-condition operator
  bool const_range{false};        // init and bound are compile-time constants
  std::int64_t lo{0};             // pre-step IV values lie in [lo, hi] when
  std::int64_t hi{0};             // const_range (lo > hi: loop never entered)

  void reset() {
    ok = false;
    slot = -1;
    step = 0;
    step_store = Site{};
    bound.reset();
    cond_off = 0;
    cmp = BinOp::kCmpLt;
    const_range = false;
    lo = 0;
    hi = 0;
  }
};

struct Interval {
  std::int64_t lo{0};
  std::int64_t hi{0};
  bool empty{false}; // the context is unreachable (zero-trip loop)
};

// A pending instruction splice. Applied after all analysis so instruction
// indices stay stable throughout.
struct Insertion {
  BlockId block{kNoBlock};
  int before_index{0}; // insert before this instruction index
  std::vector<Instr> instrs;
};

bool check_reads_applies(const LowerOptions& options, bool is_write) {
  return options.check_reads || is_write;
}

// Would the lowering for `options.mode` instrument this access at all?
// Elision never touches an access the mode leaves unchecked.
bool mode_would_check(const LowerOptions& options, const Instr& instr) {
  if (!instr.is_memory_access() || instr.array_ref == kNoSymbol ||
      instr.check_elided) {
    return false;
  }
  if (!check_reads_applies(options, instr.op == Opcode::kStore)) {
    return false;
  }
  if (options.mode == CheckMode::kCash && instr.loop == kNoLoop) {
    return false; // Cash only checks in-loop references (Section 1)
  }
  return true;
}

// The check opcode of the preheader interval check that hoisting inserts.
// Cash has no hardware interval check, so its hoisted form is the software
// one (the trade it buys back by dropping segment loads and spills).
Opcode interval_check_op(CheckMode mode) {
  switch (mode) {
    case CheckMode::kBoundInsn: return Opcode::kBoundCheckBnd;
    case CheckMode::kShadow:    return Opcode::kBoundCheckShadow;
    default:                    return Opcode::kBoundCheckSw;
  }
}

// One group per (address shape, constant offset). Keeping the constant in
// the group key makes the emptiness test exact: with a single constant,
// lo > hi at run time if and only if the loop is zero-trip, so the
// interval check passes exactly when no member would have executed.
struct HoistGroup {
  AddrInfo addr;
  std::int64_t iv_coeff{0};
  SymbolId array_ref{kNoSymbol};
  SourceLoc loc;
  std::vector<Site> members;
};

// Every table the pass uses, kept per thread and reused across functions
// and calls: storage only grows, so an analysis allocates nothing once it
// has seen a function as large as the current one.
struct Scratch {
  ir::Cfg cfg;
  ir::DominatorTree dom;
  std::vector<Site> def_sites;               // by register
  std::vector<std::vector<Site>> slot_stores; // by local slot
  std::vector<Linear> linear_memo;           // by register
  StampedSet linear_known;                   // registers with a memo entry
  std::vector<Linear> eval_temps =           // by eval() depth
      std::vector<Linear>(kMaxEvalDepth + 1);
  std::vector<IvInfo> ivs;                   // by loop id
  std::vector<SymbolId> seg_assigned;        // Cash prediction
  LoopArrays use;
  std::vector<SymbolId> candidates;
  ReuseList<Insertion> insertions; // pending splices
  std::vector<std::size_t> order;
  AddrInfo addr;
  Linear iv_lhs;
  Linear iv_rhs;
  // Graph walks.
  StampedSet body;
  StampedSet seen;
  std::vector<BlockId> work;
  std::vector<BlockId> latches;
  // Phase (b): the loop's hoist groups.
  ReuseList<HoistGroup> hoist_groups;
};

Scratch& scratch() {
  thread_local Scratch tables;
  return tables;
}

class FunctionEliminator {
 public:
  FunctionEliminator(ir::Module& module, Function& function,
                     const LowerOptions& options, Scratch& scratch)
      : module_(module),
        function_(function),
        options_(options),
        s_(scratch),
        cfg_(scratch.cfg),
        dom_(scratch.dom),
        def_sites_(scratch.def_sites),
        ivs_(scratch.ivs),
        seg_assigned_(scratch.seg_assigned) {
    cfg_.assign(function);
    dom_.assign(cfg_);
    s_.insertions.clear();
    seg_assigned_.clear();
    const std::size_t regs = static_cast<std::size_t>(function.next_reg);
    if (s_.linear_memo.size() < regs) {
      s_.linear_memo.resize(regs);
    }
    s_.linear_known.clear(regs);
    memo_regs_ = regs;
    index_defs();
    index_slot_stores();
    recognize_loops();
  }

  ElideStats run() {
    delete_proven_in_bounds();
    predict_cash_segments();
    hoist_loops();
    apply_insertions();
    return stats_;
  }

 private:
  // --- indexing ------------------------------------------------------------

  void index_defs() {
    def_sites_.assign(static_cast<std::size_t>(function_.next_reg), Site{});
    for (const auto& block : function_.blocks) {
      for (int i = 0; i < static_cast<int>(block->instrs.size()); ++i) {
        const Instr& instr = block->instrs[i];
        if (instr.dst != kNoReg && instr.dst < function_.next_reg) {
          def_sites_[static_cast<std::size_t>(instr.dst)] =
              Site{block->id, i};
        }
      }
    }
  }

  void index_slot_stores() {
    const std::size_t slots = function_.locals.size();
    if (s_.slot_stores.size() < slots) {
      s_.slot_stores.resize(slots);
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      s_.slot_stores[slot].clear();
    }
    for (const auto& block : function_.blocks) {
      for (int i = 0; i < static_cast<int>(block->instrs.size()); ++i) {
        const Instr& instr = block->instrs[i];
        if (instr.op == Opcode::kStoreLocal) {
          s_.slot_stores[static_cast<std::size_t>(instr.slot)].push_back(
              Site{block->id, i});
        }
      }
    }
  }

  // The in-function stores to `slot`, in block order.
  const std::vector<Site>& stores_to(std::int32_t slot) const {
    static const std::vector<Site> kNone;
    return slot >= 0 && static_cast<std::size_t>(slot) < function_.locals.size()
               ? s_.slot_stores[static_cast<std::size_t>(slot)]
               : kNone;
  }

  const Instr& at(Site s) const {
    return function_.block(s.block).instrs[static_cast<std::size_t>(s.index)];
  }

  const Instr* def_of(Reg r) const {
    if (r < 0 || r >= function_.next_reg) {
      return nullptr;
    }
    const Site s = def_sites_[static_cast<std::size_t>(r)];
    return s.block == kNoBlock ? nullptr : &at(s);
  }

  Site def_site_of(Reg r) const {
    if (r < 0 || r >= function_.next_reg) {
      return {};
    }
    return def_sites_[static_cast<std::size_t>(r)];
  }

  // --- affine evaluation ---------------------------------------------------

  static bool add_scaled(Linear& out, const Linear& in, std::int64_t scale) {
    out.constant += in.constant * scale;
    if (std::abs(out.constant) > kMagnitudeCap) {
      return false;
    }
    for (const auto& [slot, coeff] : in.coeffs) {
      std::int64_t& c = out.coeffs[slot];
      c += coeff * scale;
      if (std::abs(c) > kMagnitudeCap) {
        return false;
      }
      if (c == 0) {
        out.coeffs.erase(slot);
      }
    }
    for (const auto& load : in.loads) {
      out.loads.push_back(load);
    }
    return true;
  }

  // Affine view of an integer register, or ok=false. Memoized: the IR is
  // immutable during analysis.
  const Linear& eval(Reg r, int depth = 0) {
    static const Linear kBad{};
    // Registers made after indexing (by this pass) have no definition here.
    if (r < 0 || static_cast<std::size_t>(r) >= memo_regs_ ||
        depth > kMaxEvalDepth) {
      return kBad;
    }
    if (s_.linear_known.contains(r)) {
      return s_.linear_memo[static_cast<std::size_t>(r)];
    }
    Linear& result = s_.eval_temps[static_cast<std::size_t>(depth)];
    result.reset();
    const Instr* def = def_of(r);
    if (def != nullptr) {
      switch (def->op) {
        case Opcode::kConstInt:
          result.ok = std::abs(std::int64_t{def->int_imm}) <= kMagnitudeCap;
          result.constant = def->int_imm;
          break;
        case Opcode::kMove:
          result = eval(def->src0, depth + 1);
          break;
        case Opcode::kLoadLocal:
          if (def->type == ir::Type::kInt) {
            result.ok = true;
            result.coeffs[def->slot] = 1;
            result.loads.emplace_back(def->slot, def_site_of(r));
          }
          break;
        case Opcode::kBin: {
          if (def->type != ir::Type::kInt) {
            break;
          }
          const Linear& a = eval(def->src0, depth + 1);
          const Linear& b = eval(def->src1, depth + 1);
          if (!a.ok || !b.ok) {
            break;
          }
          if (def->bin_op == BinOp::kAdd || def->bin_op == BinOp::kSub) {
            result.ok = add_scaled(result, a, 1) &&
                        add_scaled(result, b,
                                   def->bin_op == BinOp::kAdd ? 1 : -1);
          } else if (def->bin_op == BinOp::kMul) {
            const Linear* term = &a;
            const Linear* factor = &b;
            if (!factor->coeffs.empty()) {
              std::swap(term, factor);
            }
            result.ok = factor->coeffs.empty() &&
                        std::abs(factor->constant) <= kMagnitudeCap &&
                        add_scaled(result, *term, factor->constant);
          } else if (def->bin_op == BinOp::kShl) {
            result.ok = b.coeffs.empty() && b.constant >= 0 &&
                        b.constant <= 26 &&
                        add_scaled(result, a,
                                   std::int64_t{1} << b.constant);
          }
          break;
        }
        default:
          break;
      }
    }
    if (!result.ok) {
      result.reset();
    }
    // A deeper evaluation of the same register (a cycle through a
    // redefined register) may have stored first; that entry stays.
    Linear& memo = s_.linear_memo[static_cast<std::size_t>(r)];
    if (s_.linear_known.add(r)) {
      memo = result;
    }
    return memo;
  }

  // Resolves an address register into `info`; false (with `info` in no
  // particular state) when its shape is not recognised.
  bool resolve_addr(Reg addr, AddrInfo& info, int depth = 0) {
    const Instr* def = def_of(addr);
    if (def == nullptr || depth > 16) {
      return false;
    }
    switch (def->op) {
      case Opcode::kAddrLocal:
        info.reset();
        info.ok = true;
        info.base = AddrInfo::Base::kLocalArray;
        info.base_slot = def->slot;
        info.offset.ok = true;
        return true;
      case Opcode::kAddrGlobal:
        info.reset();
        info.ok = true;
        info.base = AddrInfo::Base::kGlobalArray;
        info.base_global = def->symbol;
        info.offset.ok = true;
        return true;
      case Opcode::kLoadLocal:
        if (!ir::is_pointer(def->type)) {
          return false;
        }
        info.reset();
        info.ok = true;
        info.base = AddrInfo::Base::kPointerSlot;
        info.base_slot = def->slot;
        info.base_load = def_site_of(addr);
        info.offset.ok = true;
        return true;
      case Opcode::kMove:
        return resolve_addr(def->src0, info, depth + 1);
      case Opcode::kPtrAdd: {
        if (!resolve_addr(def->src0, info, depth + 1)) {
          return false;
        }
        const Linear& off = eval(def->src1);
        return off.ok && add_scaled(info.offset, off, 1);
      }
      default:
        return false;
    }
  }

  // Element count of the access's base object, when it is a local or global
  // array of statically-known extent.
  std::optional<std::int64_t> array_extent(const AddrInfo& addr) const {
    if (addr.base == AddrInfo::Base::kLocalArray) {
      const auto& slot =
          function_.locals[static_cast<std::size_t>(addr.base_slot)];
      if (slot.is_array && slot.elem_count > 0) {
        return std::int64_t{slot.elem_count};
      }
    } else if (addr.base == AddrInfo::Base::kGlobalArray) {
      for (const ir::GlobalVar& g : module_.globals) {
        if (g.symbol == addr.base_global && g.is_array && g.elem_count > 0) {
          return std::int64_t{g.elem_count};
        }
      }
    }
    return std::nullopt;
  }

  // --- loop recognition ----------------------------------------------------

  bool in_body(LoopId loop, BlockId block) const {
    const ir::Loop& l = function_.loops[static_cast<std::size_t>(loop)];
    return std::find(l.body.begin(), l.body.end(), block) != l.body.end();
  }

  // The loop's latches, in body order (in scratch storage that the next
  // call overwrites).
  const std::vector<BlockId>& latches_of(const ir::Loop& loop) {
    std::vector<BlockId>& latches = s_.latches;
    latches.clear();
    for (BlockId b : loop.body) {
      const Instr* term = function_.block(b).terminator();
      if (term != nullptr &&
          (term->target0 == loop.header || term->target1 == loop.header)) {
        latches.push_back(b);
      }
    }
    return latches;
  }

  // Within-iteration reachability: can control reach `to` from just after
  // `from` without re-entering the loop header? Same-block forward ranges
  // count as reachable.
  bool reaches_within_iteration(const ir::Loop& loop, Site from,
                                Site to) {
    if (from.block == to.block) {
      if (to.index > from.index) {
        return true;
      }
    }
    const std::size_t blocks = function_.blocks.size();
    StampedSet& body = s_.body;
    body.clear(blocks);
    for (BlockId b : loop.body) {
      body.insert(b);
    }
    StampedSet& seen = s_.seen;
    seen.clear(blocks);
    std::vector<BlockId>& work = s_.work;
    work.clear();
    auto push = [&](BlockId b) {
      if (b != loop.header && body.contains(b) && seen.add(b)) {
        work.push_back(b);
      }
    };
    for (BlockId s : cfg_.successors(from.block)) {
      push(s);
    }
    while (!work.empty()) {
      const BlockId b = work.back();
      work.pop_back();
      if (b == to.block) {
        return true;
      }
      for (BlockId s : cfg_.successors(b)) {
        push(s);
      }
    }
    return false;
  }

  bool stores_in_body(const ir::Loop& loop, std::int32_t slot) const {
    for (const Site& s : stores_to(slot)) {
      if (in_body(loop.id, s.block)) {
        return true;
      }
    }
    return false;
  }

  // A leaf load whose value must be the slot's loop-entry value: the slot
  // must be unmodified inside the loop and the load must sit in the loop
  // body, or in the preheader with no later preheader store to the slot
  // (either could have captured a stale value).
  bool invariant_leaf(const ir::Loop& loop, std::int32_t slot,
                      Site load) const {
    if (stores_in_body(loop, slot)) {
      return false;
    }
    if (in_body(loop.id, load.block)) {
      return true;
    }
    if (load.block != loop.preheader) {
      return false;
    }
    const BasicBlock& pre = function_.block(loop.preheader);
    for (int i = load.index + 1; i < static_cast<int>(pre.instrs.size());
         ++i) {
      const Instr& instr = pre.instrs[static_cast<std::size_t>(i)];
      if (instr.op == Opcode::kStoreLocal && instr.slot == slot) {
        return false;
      }
    }
    return true;
  }

  void recognize_loops() {
    if (ivs_.size() < function_.loops.size()) {
      ivs_.resize(function_.loops.size());
    }
    for (const ir::Loop& loop : function_.loops) {
      IvInfo& iv = ivs_[static_cast<std::size_t>(loop.id)];
      iv.reset();
      recognize_iv(loop, iv);
    }
  }

  // Fills `iv` (reset by the caller) when `loop` has a recognised counted
  // induction variable; returns early, leaving it unrecognised, otherwise.
  void recognize_iv(const ir::Loop& loop, IvInfo& iv) {
    if (loop.header == kNoBlock || loop.preheader == kNoBlock) {
      return;
    }
    // Continue-condition from the header: kBranch on an integer compare with
    // exactly one side inside the loop.
    const Instr* term = function_.block(loop.header).terminator();
    if (term == nullptr || term->op != Opcode::kBranch) {
      return;
    }
    const bool t0_in = in_body(loop.id, term->target0);
    const bool t1_in = in_body(loop.id, term->target1);
    if (t0_in == t1_in) {
      return;
    }
    const Instr* cond = def_of(term->src0);
    if (cond == nullptr || cond->op != Opcode::kBin ||
        cond->type != ir::Type::kInt) {
      return;
    }
    BinOp op = cond->bin_op;
    if (op != BinOp::kCmpLt && op != BinOp::kCmpLe && op != BinOp::kCmpGt &&
        op != BinOp::kCmpGe) {
      return;
    }
    Linear& lhs = s_.iv_lhs;
    Linear& rhs = s_.iv_rhs;
    lhs = eval(cond->src0);
    rhs = eval(cond->src1);
    if (!lhs.ok || !rhs.ok) {
      return;
    }
    // Normalize to `iv_side OP bound_side` with the IV on the left.
    auto mirror = [](BinOp o) {
      switch (o) {
        case BinOp::kCmpLt: return BinOp::kCmpGt;
        case BinOp::kCmpLe: return BinOp::kCmpGe;
        case BinOp::kCmpGt: return BinOp::kCmpLt;
        case BinOp::kCmpGe: return BinOp::kCmpLe;
        default: return o;
      }
    };
    auto negate = [](BinOp o) {
      switch (o) {
        case BinOp::kCmpLt: return BinOp::kCmpGe;
        case BinOp::kCmpLe: return BinOp::kCmpGt;
        case BinOp::kCmpGt: return BinOp::kCmpLe;
        case BinOp::kCmpGe: return BinOp::kCmpLt;
        default: return o;
      }
    };
    // Which side carries a single-slot coefficient-1 leaf that is stored in
    // the loop? That slot is the IV candidate.
    auto iv_slot_of = [&](const Linear& side) -> std::int32_t {
      if (side.coeffs.size() != 1) {
        return -1;
      }
      const auto& [slot, coeff] = *side.coeffs.begin();
      return coeff == 1 && stores_in_body(loop, slot) ? slot : -1;
    };
    std::int32_t slot = iv_slot_of(lhs);
    if (slot < 0) {
      slot = iv_slot_of(rhs);
      if (slot < 0) {
        return;
      }
      std::swap(lhs, rhs);
      op = mirror(op);
    }
    if (!t0_in) {
      op = negate(op); // the branch continues the loop on false
    }
    if (op == BinOp::kCmpEq || op == BinOp::kCmpNe) {
      return;
    }
    // The bound side must be loop-invariant.
    for (const auto& [bslot, site] : rhs.loads) {
      if (bslot == slot || !invariant_leaf(loop, bslot, site)) {
        return;
      }
    }
    if (!rhs.coeffs.empty() &&
        rhs.coeffs.count(slot) != 0) {
      return;
    }

    // Exactly one in-body store to the slot, of the form s = s + step, in a
    // block that dominates every latch (so it runs each iteration).
    Site step_store{};
    int in_body_stores = 0;
    for (const Site& s : stores_to(slot)) {
      if (in_body(loop.id, s.block)) {
        ++in_body_stores;
        step_store = s;
      }
    }
    if (in_body_stores != 1) {
      return;
    }
    const Linear& stepped = eval(at(step_store).src0);
    if (!stepped.ok || stepped.coeffs.size() != 1 ||
        stepped.coeffs.count(slot) == 0 ||
        stepped.coeffs.at(slot) != 1 || stepped.constant == 0) {
      return;
    }
    for (const auto& [lslot, site] : stepped.loads) {
      if (lslot == slot) {
        // The step's own read of s must happen before the store.
        if (site.block == step_store.block && site.index > step_store.index) {
          return;
        }
      } else if (!invariant_leaf(loop, lslot, site)) {
        return;
      }
    }
    const std::int64_t step = stepped.constant;
    // Direction must agree with the bound: an increasing IV needs an upper
    // bound (kCmpLt/kCmpLe), a decreasing one a lower bound.
    const bool upper = op == BinOp::kCmpLt || op == BinOp::kCmpLe;
    if ((step > 0) != upper) {
      return;
    }
    for (BlockId latch : latches_of(loop)) {
      if (!dom_.dominates(step_store.block, latch)) {
        return;
      }
    }

    iv.ok = true;
    iv.slot = slot;
    iv.step = step;
    iv.step_store = step_store;
    iv.cond_off = lhs.constant;
    iv.bound = rhs;
    iv.cmp = op;

    // Constant range: the preheader re-initializes the slot to a constant
    // and the bound is a constant. (A preheader init is required — without
    // it, a nested loop's second entry would start from a stale value.)
    const BasicBlock& pre = function_.block(loop.preheader);
    std::optional<std::int64_t> init;
    for (const Instr& instr : pre.instrs) {
      if (instr.op == Opcode::kStoreLocal && instr.slot == slot) {
        const Linear& v = eval(instr.src0);
        init = v.ok && v.coeffs.empty()
                   ? std::optional<std::int64_t>(v.constant)
                   : std::nullopt;
      }
    }
    if (init.has_value() && rhs.coeffs.empty()) {
      const std::int64_t limit = rhs.constant - iv.cond_off;
      std::int64_t lo;
      std::int64_t hi;
      if (step > 0) {
        lo = *init;
        hi = op == BinOp::kCmpLt ? limit - 1 : limit;
      } else {
        lo = op == BinOp::kCmpGt ? limit + 1 : limit;
        hi = *init;
      }
      iv.const_range = true;
      iv.lo = lo;
      iv.hi = hi;
    }
  }

  // --- phase (a): statically proven in-bounds ------------------------------

  // Constant interval of a leaf slot load at an access inside `access_loop`'s
  // chain: the slot must be the IV of an enclosing constant-range loop, read
  // before its step.
  std::optional<Interval> leaf_interval(LoopId access_loop, std::int32_t slot,
                                        Site load) {
    for (LoopId l = access_loop; l != kNoLoop;
         l = function_.loops[static_cast<std::size_t>(l)].parent) {
      const IvInfo& iv = ivs_[static_cast<std::size_t>(l)];
      if (!iv.ok || iv.slot != slot || !iv.const_range) {
        continue;
      }
      const ir::Loop& loop = function_.loops[static_cast<std::size_t>(l)];
      if (!in_body(l, load.block)) {
        return std::nullopt;
      }
      if (reaches_within_iteration(loop, iv.step_store, load)) {
        return std::nullopt; // post-step read: value may exceed the range
      }
      Interval r;
      r.lo = iv.lo;
      r.hi = iv.hi;
      r.empty = iv.lo > iv.hi;
      return r;
    }
    return std::nullopt;
  }

  std::optional<Interval> const_interval(const Linear& linear,
                                         LoopId access_loop) {
    Interval total{linear.constant, linear.constant, false};
    // Every leaf slot must have a known interval; `loads` may carry several
    // sites per slot, each of which must individually justify the range.
    for (const auto& [slot, coeff] : linear.coeffs) {
      std::optional<Interval> leaf;
      for (const auto& [lslot, site] : linear.loads) {
        if (lslot != slot) {
          continue;
        }
        std::optional<Interval> one = leaf_interval(access_loop, slot, site);
        if (!one.has_value()) {
          return std::nullopt;
        }
        leaf = one;
      }
      if (!leaf.has_value()) {
        return std::nullopt;
      }
      if (leaf->empty) {
        total.empty = true;
      }
      const std::int64_t a = coeff * leaf->lo;
      const std::int64_t b = coeff * leaf->hi;
      total.lo += std::min(a, b);
      total.hi += std::max(a, b);
      if (std::abs(total.lo) > (std::int64_t{1} << 40) ||
          std::abs(total.hi) > (std::int64_t{1} << 40)) {
        return std::nullopt;
      }
    }
    return total;
  }

  void delete_proven_in_bounds() {
    for (auto& block : function_.blocks) {
      for (Instr& instr : block->instrs) {
        if (!mode_would_check(options_, instr)) {
          continue;
        }
        AddrInfo& addr = s_.addr;
        if (!resolve_addr(instr.src0, addr)) {
          continue;
        }
        std::optional<std::int64_t> extent = array_extent(addr);
        if (!extent.has_value()) {
          continue;
        }
        std::optional<Interval> range =
            const_interval(addr.offset, instr.loop);
        if (!range.has_value()) {
          continue;
        }
        // `empty` means the surrounding loop provably never runs, so the
        // access never executes; otherwise the byte range (plus the 4-byte
        // word) must stay inside the object.
        if (range->empty ||
            (range->lo >= 0 &&
             range->hi + ir::kWordSize <= *extent * ir::kWordSize)) {
          instr.check_elided = true;
          ++stats_.checks_deleted;
        }
      }
    }
  }

  // --- Cash segment prediction ---------------------------------------------

  // Mirrors lower_cash's FCFS assignment over the post-deletion candidate
  // list: arrays predicted to hold a segment register keep their free
  // hardware checks — hoisting those would add cycles.
  void predict_cash_segments() {
    if (options_.mode != CheckMode::kCash) {
      return;
    }
    for (const ir::Loop& loop : function_.loops) {
      if (loop.parent != kNoLoop) {
        continue; // outermost nests only, in program order
      }
      LoopArrays& use = s_.use;
      analyze_loop(function_, loop, use);
      cash_segment_candidates(function_, loop, use, options_, s_.candidates);
      int next_reg = 0;
      for (SymbolId sym : s_.candidates) {
        if (next_reg >= options_.num_seg_regs) {
          break;
        }
        if (std::find(use.reassigned.begin(), use.reassigned.end(), sym) !=
                use.reassigned.end() ||
            function_.find_array_sym(sym) == nullptr) {
          continue;
        }
        ++next_reg;
        if (!seg_assigned(sym)) {
          seg_assigned_.push_back(sym);
        }
      }
    }
  }

  bool seg_assigned(SymbolId sym) const {
    return std::find(seg_assigned_.begin(), seg_assigned_.end(), sym) !=
           seg_assigned_.end();
  }

  // Accesses Cash would check in hardware for free are never hoisted.
  bool interval_profitable(const Instr& instr) const {
    return options_.mode != CheckMode::kCash || !seg_assigned(instr.array_ref);
  }

  // --- phase (b): monotone-loop hoisting -----------------------------------

  bool loop_is_hoist_safe(const ir::Loop& loop) const {
    // No nested loops: an inner loop could diverge or fault before the
    // iteration that would have caught the violation.
    for (const ir::Loop& other : function_.loops) {
      if (other.parent == loop.id) {
        return false;
      }
    }
    for (BlockId b : loop.body) {
      const BasicBlock& block = function_.block(b);
      for (const Instr& instr : block.instrs) {
        if (instr.op == Opcode::kCall || instr.op == Opcode::kRet) {
          return false;
        }
        if (instr.op == Opcode::kBin &&
            (instr.bin_op == BinOp::kDiv || instr.bin_op == BinOp::kRem) &&
            instr.type == ir::Type::kInt) {
          // Only a provably non-zero constant divisor cannot fault.
          const Instr* divisor = def_of(instr.src1);
          if (divisor == nullptr || divisor->op != Opcode::kConstInt ||
              divisor->int_imm == 0) {
            return false;
          }
        }
      }
      // Early exits: only the header may leave the loop.
      if (b == loop.header) {
        continue;
      }
      const Instr* term = block.terminator();
      if (term == nullptr) {
        return false;
      }
      if (term->op == Opcode::kRet) {
        return false;
      }
      if (term->target0 != kNoBlock && !in_body(loop.id, term->target0)) {
        return false;
      }
      if (term->op == Opcode::kBranch && term->target1 != kNoBlock &&
          !in_body(loop.id, term->target1)) {
        return false;
      }
    }
    return true;
  }

  void hoist_loops() {
    for (const ir::Loop& loop : function_.loops) {
      const IvInfo& iv = ivs_[static_cast<std::size_t>(loop.id)];
      if (!iv.ok || std::abs(iv.step) != 1 || loop.preheader == kNoBlock) {
        continue; // |step| == 1 keeps the extremal indices exact
      }
      if (!loop_is_hoist_safe(loop)) {
        continue;
      }
      const std::vector<BlockId>& latches = latches_of(loop);
      ReuseList<HoistGroup>& groups = s_.hoist_groups;
      groups.clear();
      for (BlockId b : loop.body) {
        BasicBlock& block = function_.block(b);
        for (int i = 0; i < static_cast<int>(block.instrs.size()); ++i) {
          Instr& instr = block.instrs[i];
          if (!mode_would_check(options_, instr) ||
              instr.loop != loop.id || !interval_profitable(instr)) {
            continue;
          }
          // The access must run on every iteration, before the IV steps.
          bool dominates_latches = !latches.empty();
          for (BlockId latch : latches) {
            dominates_latches =
                dominates_latches && dom_.dominates(b, latch);
          }
          if (!dominates_latches ||
              reaches_within_iteration(loop, iv.step_store, Site{b, i})) {
            continue;
          }
          AddrInfo& addr = s_.addr;
          if (!resolve_addr(instr.src0, addr)) {
            continue;
          }
          if (!hoistable_addr(loop, iv, addr)) {
            continue;
          }
          const std::int64_t coeff = addr.offset.coeffs.at(iv.slot);
          HoistGroup* group = nullptr;
          for (HoistGroup& g : groups) {
            if (same_hoist_shape(g.addr, addr)) {
              group = &g;
              break;
            }
          }
          if (group == nullptr) {
            group = &groups.claim();
            group->addr = addr;
            group->iv_coeff = coeff;
            group->array_ref = instr.array_ref;
            group->loc = instr.loc;
            group->members.clear();
          }
          group->members.push_back(Site{b, i});
        }
      }
      for (const HoistGroup& group : groups) {
        emit_hoisted_check(loop, iv, group);
        for (const Site& s : group.members) {
          function_.block(s.block)
              .instrs[static_cast<std::size_t>(s.index)]
              .check_elided = true;
          ++stats_.checks_hoisted;
        }
        ++stats_.hoist_checks_inserted;
      }
    }
  }

  // The address must be affine in the IV (nonzero coefficient) with every
  // other ingredient loop-invariant and rematerializable in the preheader.
  bool hoistable_addr(const ir::Loop& loop, const IvInfo& iv,
                      const AddrInfo& addr) {
    const auto coeff_it = addr.offset.coeffs.find(iv.slot);
    if (coeff_it == addr.offset.coeffs.end() || coeff_it->second == 0) {
      return false;
    }
    if (addr.base == AddrInfo::Base::kPointerSlot &&
        !invariant_leaf(loop, addr.base_slot, addr.base_load)) {
      return false; // pointer re-seated, or the load saw a stale value
    }
    for (const auto& [slot, site] : addr.offset.loads) {
      if (slot == iv.slot) {
        if (!in_body(loop.id, site.block) ||
            reaches_within_iteration(loop, iv.step_store, site)) {
          return false; // must read the pre-step IV value
        }
      } else if (!invariant_leaf(loop, slot, site)) {
        return false;
      }
    }
    return true;
  }

  static bool same_hoist_shape(const AddrInfo& a, const AddrInfo& b) {
    return a.base == b.base && a.base_slot == b.base_slot &&
           a.base_global == b.base_global &&
           a.offset.coeffs == b.offset.coeffs &&
           a.offset.constant == b.offset.constant;
  }

  // Builds the preheader interval check for one hoist group: materialize the
  // base pointer and both extremal addresses, then a single interval check
  // `[lo, hi]` that passes vacuously when the loop is zero-trip.
  void emit_hoisted_check(const ir::Loop& loop, const IvInfo& iv,
                          const HoistGroup& group) {
    std::vector<Instr>& prefix = new_insertion(
        loop.preheader, terminator_index(function_.block(loop.preheader)));
    const LoopId outer = loop.parent;
    auto emit = [&](Instr instr) -> Reg {
      instr.loop = outer;
      instr.loc = group.loc;
      prefix.push_back(instr);
      return instr.dst;
    };
    auto const_int = [&](std::int64_t v) {
      Instr c;
      c.op = Opcode::kConstInt;
      c.dst = function_.new_reg();
      c.int_imm = static_cast<std::int32_t>(v);
      return emit(c);
    };
    auto load_slot = [&](std::int32_t slot, ir::Type type) {
      Instr l;
      l.op = Opcode::kLoadLocal;
      l.type = type;
      l.dst = function_.new_reg();
      l.slot = slot;
      return emit(l);
    };
    auto bin = [&](BinOp op, Reg a, Reg b) {
      Instr instr;
      instr.op = Opcode::kBin;
      instr.bin_op = op;
      instr.dst = function_.new_reg();
      instr.src0 = a;
      instr.src1 = b;
      return emit(instr);
    };
    // value-of(linear term) at the preheader's end, with the IV replaced by
    // `iv_value`; wrapping 32-bit arithmetic matches the loop body's own
    // address computation exactly.
    auto materialize = [&](const Linear& linear, Reg iv_value,
                           std::int64_t extra_const) -> Reg {
      Reg acc = kNoReg;
      auto accumulate = [&](Reg value, std::int64_t coeff) {
        if (coeff == 0 || value == kNoReg) {
          return;
        }
        Reg scaled = value;
        const std::int64_t mag = std::abs(coeff);
        if (mag != 1) {
          // Power-of-two coefficients (the common 4-byte scale) shift.
          if ((mag & (mag - 1)) == 0) {
            std::int64_t shift = 0;
            while ((std::int64_t{1} << shift) != mag) {
              ++shift;
            }
            scaled = bin(BinOp::kShl, value, const_int(shift));
          } else {
            scaled = bin(BinOp::kMul, value, const_int(mag));
          }
        }
        if (acc == kNoReg) {
          acc = coeff < 0 ? bin(BinOp::kSub, const_int(0), scaled) : scaled;
        } else {
          acc = bin(coeff < 0 ? BinOp::kSub : BinOp::kAdd, acc, scaled);
        }
      };
      for (const auto& [slot, coeff] : linear.coeffs) {
        if (slot == iv.slot) {
          accumulate(iv_value, coeff);
        } else {
          accumulate(load_slot(slot, ir::Type::kInt), coeff);
        }
      }
      const std::int64_t c = linear.constant + extra_const;
      if (acc == kNoReg) {
        return const_int(c);
      }
      return c == 0 ? acc : bin(BinOp::kAdd, acc, const_int(c));
    };

    // Extremal IV values: the loop-entry value from the slot itself, and the
    // bound-derived far end (exact because |step| == 1).
    const Reg iv_entry = load_slot(iv.slot, ir::Type::kInt);
    const std::int64_t bound_adjust =
        -iv.cond_off + (iv.step > 0 ? (iv.cmp == BinOp::kCmpLt ? -1 : 0)
                                    : (iv.cmp == BinOp::kCmpGt ? 1 : 0));
    const Reg iv_far = materialize(iv.bound, kNoReg, bound_adjust);
    const Reg iv_min = iv.step > 0 ? iv_entry : iv_far;
    const Reg iv_max = iv.step > 0 ? iv_far : iv_entry;
    const bool coeff_pos = group.iv_coeff > 0;

    Instr base;
    base.dst = function_.new_reg();
    switch (group.addr.base) {
      case AddrInfo::Base::kLocalArray:
        base.op = Opcode::kAddrLocal;
        base.slot = group.addr.base_slot;
        base.array_ref = group.array_ref;
        base.synthetic = true; // check set-up, costed with the check
        break;
      case AddrInfo::Base::kGlobalArray:
        base.op = Opcode::kAddrGlobal;
        base.symbol = group.addr.base_global;
        base.array_ref = group.array_ref;
        base.synthetic = true;
        break;
      case AddrInfo::Base::kPointerSlot:
        base.op = Opcode::kLoadLocal;
        base.type = ir::Type::kIntPtr;
        base.slot = group.addr.base_slot;
        break;
    }
    const Reg base_reg = emit(base);

    auto extremal_addr = [&](Reg iv_value) {
      const Reg off = materialize(group.addr.offset, iv_value, 0);
      Instr add;
      add.op = Opcode::kPtrAdd;
      add.type = ir::Type::kIntPtr;
      add.dst = function_.new_reg();
      add.src0 = base_reg;
      add.src1 = off;
      return emit(add);
    };
    const Reg lo = extremal_addr(coeff_pos ? iv_min : iv_max);
    const Reg hi = extremal_addr(coeff_pos ? iv_max : iv_min);

    Instr check;
    check.op = interval_check_op(options_.mode);
    check.src0 = lo;
    check.src1 = hi;
    check.array_ref = group.array_ref;
    emit(check);
  }

  // Claims the next pending splice and returns its (empty) instructions.
  std::vector<Instr>& new_insertion(BlockId block, int before_index) {
    Insertion& ins = s_.insertions.claim();
    ins.block = block;
    ins.before_index = before_index;
    ins.instrs.clear();
    return ins.instrs;
  }

  static int terminator_index(const BasicBlock& block) {
    const int size = static_cast<int>(block.instrs.size());
    if (size > 0 && block.instrs[static_cast<std::size_t>(size - 1)]
                        .is_terminator()) {
      return size - 1;
    }
    return size;
  }

  // --- final splice --------------------------------------------------------

  void apply_insertions() {
    // By block, then from the back of the block, so the indices still to
    // apply stay valid; ties keep their order of creation.
    const ReuseList<Insertion>& insertions = s_.insertions;
    std::vector<std::size_t>& order = s_.order;
    order.resize(insertions.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      order[k] = k;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Insertion& x = insertions[a];
      const Insertion& y = insertions[b];
      if (x.block != y.block) {
        return x.block < y.block;
      }
      return x.before_index != y.before_index
                 ? x.before_index > y.before_index
                 : a < b;
    });
    for (std::size_t k = 0; k < order.size(); ++k) {
      Insertion& ins = s_.insertions[order[k]];
      auto& instrs = function_.block(ins.block).instrs;
      if (k == 0 || insertions[order[k - 1]].block != ins.block) {
        // Grow each block once, to its final size.
        std::size_t added = 0;
        for (std::size_t j = k; j < order.size() &&
                                insertions[order[j]].block == ins.block;
             ++j) {
          added += insertions[order[j]].instrs.size();
        }
        instrs.reserve(instrs.size() + added);
      }
      instrs.insert(instrs.begin() + ins.before_index,
                    std::make_move_iterator(ins.instrs.begin()),
                    std::make_move_iterator(ins.instrs.end()));
    }
  }

  ir::Module& module_;
  Function& function_;
  const LowerOptions& options_;
  Scratch& s_;
  ir::Cfg& cfg_;
  ir::DominatorTree& dom_;
  std::vector<Site>& def_sites_;        // by register
  std::vector<IvInfo>& ivs_;            // by loop id
  std::vector<SymbolId>& seg_assigned_; // Cash prediction
  std::size_t memo_regs_{0};            // registers eval() may memoize
  ElideStats stats_;
};

} // namespace

ElideStats elide_function(ir::Module& module, ir::Function& function,
                          const LowerOptions& options) {
  if (options.mode == CheckMode::kNoCheck ||
      options.mode == CheckMode::kEfence) {
    return {};
  }
  return FunctionEliminator(module, function, options, scratch()).run();
}

ElideStats elide_module(ir::Module& module, const LowerOptions& options) {
  ElideStats stats;
  for (auto& function : module.functions) {
    stats += elide_function(module, *function, options);
  }
  return stats;
}

} // namespace cash::passes
