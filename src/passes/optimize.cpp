#include "passes/optimize.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/dense_table.hpp"

namespace cash::passes {

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::Function;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

// --- the CSE value table ------------------------------------------------

// A pure value as CSE sees it. Each register or slot it reads carries the
// version it had when the value was computed, so a redefinition or a store
// makes older keys unreachable instead of having to find and erase them.
struct ValueKey {
  Opcode op;
  ir::Type type;
  int sub_op;
  Reg src0;
  Reg src1;
  std::uint32_t src0_version;
  std::uint32_t src1_version;
  std::int64_t imm;
  std::int32_t slot_or_symbol;
  std::uint32_t slot_version;

  bool operator==(const ValueKey&) const = default;

  std::uint64_t hash() const {
    std::uint64_t h = (static_cast<std::uint64_t>(op) << 40) ^
                      (static_cast<std::uint64_t>(type) << 32) ^
                      static_cast<std::uint32_t>(sub_op);
    const auto mix = [&](std::uint64_t v) {
      h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    };
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src0)) << 32) |
        src0_version);
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src1)) << 32) |
        src1_version);
    mix(static_cast<std::uint64_t>(imm));
    mix((static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(slot_or_symbol))
         << 32) |
        slot_version);
    return h;
  }
};

// The values available in the current block: open addressing with linear
// probing. Entries are never erased (stale ones are unreachable by key, or
// caught by their value's version), and clear() abandons all of them at
// once by advancing the generation.
class ValueTable {
 public:
  struct Entry {
    std::uint32_t generation{0};
    ValueKey key{};
    Reg value{ir::kNoReg};
    std::uint32_t value_version{0};
  };

  void clear() {
    live_ = 0;
    if (++generation_ == 0) {
      for (Entry& e : entries_) {
        e.generation = 0;
      }
      generation_ = 1;
    }
  }

  // The entry holding `key`; when there is none, claims an empty entry with
  // that key, sets `found` to false and leaves filling it to the caller.
  Entry& find_or_claim(const ValueKey& key, bool& found) {
    if ((live_ + 1) * 2 > entries_.size()) {
      grow();
    }
    Entry& e = probe(key);
    found = e.generation == generation_;
    if (!found) {
      e.generation = generation_;
      e.key = key;
      ++live_;
    }
    return e;
  }

 private:
  Entry& probe(const ValueKey& key) {
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = key.hash() & mask;; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.generation != generation_ || e.key == key) {
        return e;
      }
    }
  }

  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(256, entries_.size() * 2));
    old.swap(entries_);
    for (const Entry& e : old) {
      if (e.generation == generation_) {
        probe(e.key) = e;
      }
    }
  }

  std::vector<Entry> entries_;
  std::uint32_t generation_{1};
  std::size_t live_{0};
};

// Tables reused by every sub-pass of one optimize_module call, so that no
// sub-pass allocates per function, block or loop once they have grown.
// Unlike the other passes' scratch they live for one call; DESIGN.md §7
// ("Pass scratch") says why.
struct Scratch {
  std::vector<int> defs;
  std::vector<int> uses;
  std::size_t slots{0}; // 1 + the largest local slot the function names
  // The per-register map each sub-pass uses in turn: constants known so far
  // in the block (strength reduction), copy representatives in the block
  // (CSE), and copy sources in the function (copy propagation).
  StampedMap<std::int32_t> reg_map;
  std::vector<Instr> rebuilt;
  ValueTable values;
  std::vector<std::uint32_t> reg_version;
  std::vector<std::uint32_t> slot_version;
  std::vector<const ir::Loop*> loops;
  std::vector<ir::BlockId> ordered;
  StampedSet defined_inside;
  StampedSet stored_slots;
  StampedSet hoisted_defs;
  std::vector<Instr> hoisted;
  // Dead code elimination.
  struct PureDef {
    std::size_t at; // position in the function
    const Instr* instr;
  };
  std::vector<PureDef> pure_defs;
  std::vector<std::uint32_t> def_begin;
  std::vector<std::uint32_t> def_fill;
  std::vector<char> dead;
  std::vector<Reg> freed;
  std::vector<Reg> unused;
};

// Integer div/rem can fault (divide by zero); executing them speculatively
// in a preheader could introduce a fault the program never had.
bool can_fault(const Instr& instr) {
  return instr.op == Opcode::kBin && instr.type == ir::Type::kInt &&
         (instr.bin_op == BinOp::kDiv || instr.bin_op == BinOp::kRem);
}

// Fills scratch.defs with each register's definition count and
// scratch.slots with the local slot range the function uses.
void count_defs(const Function& function, Scratch& scratch) {
  scratch.defs.assign(static_cast<std::size_t>(function.next_reg), 0);
  std::int32_t max_slot = -1;
  for (const auto& block : function.blocks) {
    for (const Instr& instr : block->instrs) {
      if (instr.dst != ir::kNoReg) {
        ++scratch.defs[static_cast<std::size_t>(instr.dst)];
      }
      max_slot = std::max(max_slot, instr.slot);
    }
  }
  scratch.slots = static_cast<std::size_t>(max_slot + 1);
}

void for_each_use(const Function& function, const Instr& instr,
                  const auto& fn) {
  if (instr.src0 != ir::kNoReg) {
    fn(instr.src0);
  }
  if (instr.src1 != ir::kNoReg) {
    fn(instr.src1);
  }
  if (instr.op == Opcode::kCall) {
    for (Reg arg : function.call_site(instr).args) {
      fn(arg);
    }
  }
}

// Keeps, in order, the instructions for which `keep` returns true,
// compacting the vector in place. `keep` sees each instruction once and may
// move from one it rejects.
void compact(std::vector<Instr>& instrs, const auto& keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (keep(instrs[i])) {
      if (kept != i) {
        instrs[kept] = std::move(instrs[i]);
      }
      ++kept;
    }
  }
  instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(kept),
               instrs.end());
}

// --- 1. strength reduction ---------------------------------------------

int log2_exact(std::int32_t v) {
  if (v <= 0 || (v & (v - 1)) != 0) {
    return -1;
  }
  int shift = 0;
  while ((1 << shift) != v) {
    ++shift;
  }
  return shift;
}

std::uint64_t strength_reduce(Function& function, Scratch& scratch) {
  const std::vector<int>& defs = scratch.defs;
  StampedMap<std::int32_t>& known = scratch.reg_map;
  std::vector<Instr>& out = scratch.rebuilt;
  std::uint64_t changed = 0;
  for (auto& block : function.blocks) {
    // Constants known at this point of the block (single-def regs only).
    known.clear(static_cast<std::size_t>(function.next_reg));
    std::vector<Instr>& instrs = block->instrs;
    // A block is rebuilt into `out` only from its first expansion on; until
    // then every rewrite is in place.
    bool rebuilding = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      Instr& instr = instrs[i];
      const auto start_rebuild = [&] {
        if (!rebuilding) {
          out.clear();
          out.insert(out.end(), std::make_move_iterator(instrs.begin()),
                     std::make_move_iterator(instrs.begin() +
                                             static_cast<std::ptrdiff_t>(i)));
          rebuilding = true;
        }
      };
      if (instr.op == Opcode::kConstInt &&
          defs[static_cast<std::size_t>(instr.dst)] == 1) {
        known.set(instr.dst, instr.int_imm);
      }
      // Signed division / remainder by a power-of-two constant: GCC at the
      // highest level emits a shift with a sign fix-up, not idiv. Expand to
      // the exact branch-free sequence so the cost model sees what the real
      // compiler would pay:
      //   s = x >> 31; bias = s & (C-1); t = x + bias;
      //   div: q = t >> log2(C)
      //   rem: r = x - (t & ~(C-1))
      if (instr.op == Opcode::kBin && instr.type == ir::Type::kInt &&
          (instr.bin_op == BinOp::kDiv || instr.bin_op == BinOp::kRem)) {
        const std::int32_t* divisor = known.find(instr.src1);
        const int shift = divisor != nullptr ? log2_exact(*divisor) : -1;
        if (shift > 0) {
          start_rebuild();
          const bool is_div = instr.bin_op == BinOp::kDiv;
          const std::int32_t mask = *divisor - 1;
          const Reg x = instr.src0;
          auto emit_const = [&](std::int32_t value) {
            Instr c;
            c.op = Opcode::kConstInt;
            c.type = ir::Type::kInt;
            c.dst = function.new_reg();
            c.int_imm = value;
            c.loop = instr.loop;
            c.loc = instr.loc;
            out.push_back(c);
            return c.dst;
          };
          auto emit_bin = [&](BinOp op, Reg a, Reg b) {
            Instr b2;
            b2.op = Opcode::kBin;
            b2.bin_op = op;
            b2.type = ir::Type::kInt;
            b2.dst = function.new_reg();
            b2.src0 = a;
            b2.src1 = b;
            b2.loop = instr.loop;
            b2.loc = instr.loc;
            out.push_back(b2);
            return b2.dst;
          };
          const Reg sign = emit_bin(BinOp::kShr, x, emit_const(31));
          const Reg bias = emit_bin(BinOp::kAnd, sign, emit_const(mask));
          const Reg biased = emit_bin(BinOp::kAdd, x, bias);
          if (is_div) {
            instr.bin_op = BinOp::kShr;
            instr.src0 = biased;
            instr.src1 = emit_const(shift);
          } else {
            const Reg rounded =
                emit_bin(BinOp::kAnd, biased, emit_const(~mask));
            instr.bin_op = BinOp::kSub;
            instr.src0 = x;
            instr.src1 = rounded;
          }
          ++changed;
          known.erase(instr.dst);
          out.push_back(std::move(instr));
          continue;
        }
      }
      if (instr.op == Opcode::kBin && instr.type == ir::Type::kInt &&
          instr.bin_op == BinOp::kMul) {
        // x * C with C a power of two -> x << log2(C).
        auto try_rewrite = [&](Reg value, Reg const_reg) -> bool {
          const std::int32_t* constant = known.find(const_reg);
          if (constant == nullptr) {
            return false;
          }
          const int shift = log2_exact(*constant);
          if (*constant == 1) {
            instr.op = Opcode::kMove;
            instr.src0 = value;
            instr.src1 = ir::kNoReg;
            ++changed;
            return true;
          }
          if (shift < 0) {
            return false;
          }
          start_rebuild();
          Instr shift_const;
          shift_const.op = Opcode::kConstInt;
          shift_const.type = ir::Type::kInt;
          shift_const.dst = function.new_reg();
          shift_const.int_imm = shift;
          shift_const.loop = instr.loop;
          shift_const.loc = instr.loc;
          out.push_back(shift_const);
          instr.bin_op = BinOp::kShl;
          instr.src0 = value;
          instr.src1 = shift_const.dst;
          ++changed;
          return true;
        };
        if (!try_rewrite(instr.src0, instr.src1)) {
          try_rewrite(instr.src1, instr.src0);
        }
      }
      // Redefinition kills constant knowledge.
      if (instr.dst != ir::kNoReg && instr.op != Opcode::kConstInt) {
        known.erase(instr.dst);
      }
      if (rebuilding) {
        out.push_back(std::move(instr));
      }
    }
    if (rebuilding) {
      instrs.swap(out);
    }
  }
  return changed;
}

// --- 2. local value numbering (CSE) --------------------------------------

std::uint64_t local_cse(Function& function, Scratch& scratch) {
  const std::vector<int>& defs = scratch.defs;
  const std::size_t regs = static_cast<std::size_t>(function.next_reg);
  std::vector<std::uint32_t>& reg_version = scratch.reg_version;
  std::vector<std::uint32_t>& slot_version = scratch.slot_version;
  if (reg_version.size() < regs) {
    reg_version.resize(regs, 0);
  }
  if (slot_version.size() < scratch.slots) {
    slot_version.resize(scratch.slots, 0);
  }
  const auto version_of = [&](Reg r) {
    return r == ir::kNoReg ? 0U : reg_version[static_cast<std::size_t>(r)];
  };
  std::uint64_t changed = 0;
  const auto single = [&](Reg r) {
    return r == ir::kNoReg || defs[static_cast<std::size_t>(r)] == 1;
  };
  ValueTable& table = scratch.values;
  // Copy resolution: operands are canonicalised through kMove chains so
  // that value keys match across CSE-introduced copies.
  StampedMap<Reg>& representative = scratch.reg_map;
  const auto rep_of = [&](Reg r) {
    const Reg* rep = representative.find(r);
    return rep != nullptr ? *rep : r;
  };
  for (auto& block : function.blocks) {
    table.clear();
    representative.clear(regs);
    for (Instr& instr : block->instrs) {
      if (instr.dst != ir::kNoReg) {
        // A definition invalidates every cached value computed from, or
        // held in, the previous contents of that register.
        ++reg_version[static_cast<std::size_t>(instr.dst)];
        if (instr.op == Opcode::kMove && instr.src0 != ir::kNoReg &&
            single(instr.dst) && single(instr.src0)) {
          representative.set(instr.dst, rep_of(instr.src0));
        } else {
          representative.set(instr.dst, instr.dst);
        }
      }
      if (instr.op == Opcode::kStoreLocal) {
        // Kills cached loads of that slot. (Calls cannot touch caller
        // locals, so they do not invalidate.)
        ++slot_version[static_cast<std::size_t>(instr.slot)];
      }
      // kLoadLocal joins the CSE-able set: local slots have no aliases, so
      // a repeated load between two stores always yields the same value.
      const bool cse_able =
          (instr.is_pure() && instr.op != Opcode::kMove) ||
          instr.op == Opcode::kLoadLocal;
      if (!cse_able || instr.dst == ir::kNoReg || !single(instr.dst) ||
          !single(instr.src0) || !single(instr.src1)) {
        continue;
      }
      ValueKey key{};
      key.op = instr.op;
      key.type = instr.type;
      key.sub_op = instr.op == Opcode::kBin ? static_cast<int>(instr.bin_op)
                   : instr.op == Opcode::kUn ? static_cast<int>(instr.un_op)
                                             : 0;
      key.src0 = instr.src0 == ir::kNoReg ? ir::kNoReg : rep_of(instr.src0);
      key.src1 = instr.src1 == ir::kNoReg ? ir::kNoReg : rep_of(instr.src1);
      key.src0_version = version_of(key.src0);
      key.src1_version = version_of(key.src1);
      key.imm = instr.op == Opcode::kConstInt ? instr.int_imm
                : instr.op == Opcode::kConstFloat
                    ? static_cast<std::int64_t>(
                          std::bit_cast<std::uint32_t>(instr.float_imm))
                    : 0;
      key.slot_or_symbol =
          (instr.op == Opcode::kAddrLocal || instr.op == Opcode::kLoadLocal)
              ? instr.slot
          : instr.op == Opcode::kAddrGlobal ? instr.symbol
                                            : -1;
      key.slot_version =
          instr.op == Opcode::kLoadLocal
              ? slot_version[static_cast<std::size_t>(instr.slot)]
              : 0;
      bool found = false;
      ValueTable::Entry& entry = table.find_or_claim(key, found);
      if (!found || entry.value_version != version_of(entry.value)) {
        // New value, or its register has since been redefined: this
        // instruction's result becomes the one to reuse.
        entry.value = instr.dst;
        entry.value_version = version_of(instr.dst);
        continue;
      }
      // Same value already available: turn into a cheap copy.
      const ir::SymbolId array_ref = instr.array_ref;
      const Reg existing = entry.value;
      Instr replacement;
      replacement.op = Opcode::kMove;
      replacement.type = instr.type;
      replacement.dst = instr.dst;
      replacement.src0 = existing;
      replacement.loop = instr.loop;
      replacement.loc = instr.loc;
      replacement.array_ref = array_ref;
      instr = replacement;
      ++changed;
    }
  }
  return changed;
}

// --- 2b. copy propagation --------------------------------------------------

// Function-wide: uses of a single-def kMove destination are rewritten to the
// (single-def) source. In this structured-code IR every definition dominates
// its uses, so the rewrite is always legal; DCE then removes the dead moves.
std::uint64_t copy_propagate(Function& function, Scratch& scratch) {
  const std::vector<int>& defs = scratch.defs;
  const auto single = [&](Reg r) {
    return r != ir::kNoReg && defs[static_cast<std::size_t>(r)] == 1;
  };

  StampedMap<Reg>& rep = scratch.reg_map;
  rep.clear(static_cast<std::size_t>(function.next_reg));
  bool any = false;
  for (const auto& block : function.blocks) {
    for (const Instr& instr : block->instrs) {
      if (instr.op == Opcode::kMove && single(instr.dst) &&
          single(instr.src0)) {
        const Reg* source = rep.find(instr.src0);
        rep.set(instr.dst, source != nullptr ? *source : instr.src0);
        any = true;
      }
    }
  }
  if (!any) {
    return 0;
  }

  std::uint64_t rewritten = 0;
  const auto rewrite = [&](Reg& r) {
    const Reg* source = rep.find(r);
    if (source != nullptr) {
      r = *source;
      ++rewritten;
    }
  };
  for (auto& block : function.blocks) {
    for (Instr& instr : block->instrs) {
      if (instr.op == Opcode::kMove && rep.contains(instr.dst)) {
        continue; // the move itself dies in DCE
      }
      if (instr.src0 != ir::kNoReg) {
        rewrite(instr.src0);
      }
      if (instr.src1 != ir::kNoReg) {
        rewrite(instr.src1);
      }
    }
  }
  for (ir::CallSite& site : function.calls) {
    for (Reg& arg : site.args) {
      rewrite(arg);
    }
  }
  return rewritten;
}

// --- 3. loop-invariant code motion ---------------------------------------

std::uint64_t licm(Function& function, Scratch& scratch) {
  const std::vector<int>& defs = scratch.defs;
  const std::size_t regs = static_cast<std::size_t>(function.next_reg);
  std::uint64_t hoisted_total = 0;

  // Deepest loops first, so invariants bubble outward one level at a time.
  std::vector<const ir::Loop*>& loops = scratch.loops;
  loops.clear();
  for (const ir::Loop& loop : function.loops) {
    loops.push_back(&loop);
  }
  std::sort(loops.begin(), loops.end(),
            [](const ir::Loop* a, const ir::Loop* b) {
              return a->depth > b->depth;
            });

  StampedSet& defined_inside = scratch.defined_inside;
  StampedSet& stored_slots = scratch.stored_slots;
  StampedSet& hoisted_defs = scratch.hoisted_defs;
  std::vector<Instr>& hoisted = scratch.hoisted;
  std::vector<ir::BlockId>& ordered = scratch.ordered;
  for (const ir::Loop* loop : loops) {
    // Registers (re)defined and local slots stored anywhere inside the loop.
    defined_inside.clear(regs);
    stored_slots.clear(scratch.slots);
    for (ir::BlockId block_id : loop->body) {
      for (const Instr& instr : function.block(block_id).instrs) {
        if (instr.dst != ir::kNoReg) {
          defined_inside.insert(instr.dst);
        }
        if (instr.op == Opcode::kStoreLocal) {
          stored_slots.insert(instr.slot);
        }
      }
    }

    hoisted.clear();
    hoisted_defs.clear(regs);
    ordered.assign(loop->body.begin(), loop->body.end());
    std::sort(ordered.begin(), ordered.end());
    for (ir::BlockId block_id : ordered) {
      compact(function.block(block_id).instrs, [&](Instr& instr) {
        // kLoadLocal is hoistable when no store to that slot occurs in the
        // loop (slots are per-frame: calls cannot alias them).
        const bool invariant_load = instr.op == Opcode::kLoadLocal &&
                                    !stored_slots.contains(instr.slot);
        bool movable = (instr.is_pure() || invariant_load) &&
                       !can_fault(instr) && instr.dst != ir::kNoReg &&
                       defs[static_cast<std::size_t>(instr.dst)] == 1;
        if (movable) {
          for_each_use(function, instr, [&](Reg r) {
            const bool invariant =
                !defined_inside.contains(r) || hoisted_defs.contains(r);
            movable = movable && invariant;
          });
        }
        if (!movable) {
          return true;
        }
        hoisted_defs.insert(instr.dst);
        hoisted.push_back(std::move(instr));
        return false;
      });
    }

    if (!hoisted.empty()) {
      BasicBlock& preheader = function.block(loop->preheader);
      std::vector<Instr>& instrs = preheader.instrs;
      const std::size_t term_at =
          (!instrs.empty() && instrs.back().is_terminator())
              ? instrs.size() - 1
              : instrs.size();
      instrs.insert(instrs.begin() + static_cast<std::ptrdiff_t>(term_at),
                    std::make_move_iterator(hoisted.begin()),
                    std::make_move_iterator(hoisted.end()));
      hoisted_total += hoisted.size();
    }
  }
  return hoisted_total;
}

// --- 4. dead code elimination ---------------------------------------------

// Each round removes the pure instructions whose result had no use when the
// round began; the next round's counts are this round's minus the uses the
// removed instructions held. The first round scans the function; a later
// round can only remove definitions of registers whose last use the round
// before removed, so it visits just those. Rounds only mark instructions
// dead; the blocks are compacted once, after the last round.
std::uint64_t dce(Function& function, Scratch& scratch) {
  const std::size_t regs = static_cast<std::size_t>(function.next_reg);
  std::vector<int>& uses = scratch.uses;
  uses.assign(regs, 0);
  // Pure definitions grouped by destination register: those of register r
  // are pure_defs[def_begin[r], def_begin[r + 1]).
  std::vector<std::uint32_t>& def_begin = scratch.def_begin;
  def_begin.assign(regs + 1, 0);
  const auto removable = [](const Instr& instr) {
    return instr.is_pure() && instr.dst != ir::kNoReg;
  };
  std::size_t instrs = 0;
  for (const auto& block : function.blocks) {
    instrs += block->instrs.size();
    for (const Instr& instr : block->instrs) {
      for_each_use(function, instr,
                   [&](Reg r) { ++uses[static_cast<std::size_t>(r)]; });
      if (removable(instr)) {
        ++def_begin[static_cast<std::size_t>(instr.dst) + 1];
      }
    }
  }
  for (std::size_t r = 0; r < regs; ++r) {
    def_begin[r + 1] += def_begin[r];
  }
  std::vector<Scratch::PureDef>& pure_defs = scratch.pure_defs;
  pure_defs.resize(def_begin[regs]);
  std::vector<std::uint32_t>& fill = scratch.def_fill;
  fill.assign(def_begin.begin(), def_begin.end() - 1);
  std::vector<char>& dead = scratch.dead; // by position in the function
  dead.assign(instrs, 0);
  std::vector<Reg>& freed = scratch.freed;
  freed.clear();
  const auto remove = [&](std::size_t at, const Instr& instr) {
    dead[at] = 1;
    for_each_use(function, instr, [&](Reg r) { freed.push_back(r); });
  };

  std::uint64_t removed = 0;
  std::size_t at = 0;
  for (const auto& block : function.blocks) {
    for (const Instr& instr : block->instrs) {
      if (removable(instr)) {
        const auto r = static_cast<std::size_t>(instr.dst);
        pure_defs[fill[r]++] = {at, &instr};
        if (uses[r] == 0) {
          remove(at, instr);
          ++removed;
        }
      }
      ++at;
    }
  }
  std::uint64_t removed_total = removed;
  std::vector<Reg>& unused = scratch.unused;
  for (int round = 1; round < 8 && removed != 0; ++round) {
    unused.clear();
    for (Reg r : freed) {
      if (--uses[static_cast<std::size_t>(r)] == 0) {
        unused.push_back(r);
      }
    }
    freed.clear();
    removed = 0;
    for (Reg r : unused) {
      const auto reg = static_cast<std::size_t>(r);
      for (std::uint32_t k = def_begin[reg]; k < def_begin[reg + 1]; ++k) {
        if (dead[pure_defs[k].at] == 0) {
          remove(pure_defs[k].at, *pure_defs[k].instr);
          ++removed;
        }
      }
    }
    removed_total += removed;
  }
  if (removed_total != 0) {
    at = 0;
    for (auto& block : function.blocks) {
      compact(block->instrs, [&](const Instr&) { return dead[at++] == 0; });
    }
  }
  return removed_total;
}

OptStats optimize(ir::Function& function, Scratch& scratch) {
  OptStats stats;
  for (int round = 0; round < 3; ++round) {
    count_defs(function, scratch);
    const std::uint64_t reduced = strength_reduce(function, scratch);
    // Strength reduction defines only new registers, each once.
    scratch.defs.resize(static_cast<std::size_t>(function.next_reg), 1);
    const std::uint64_t replaced = local_cse(function, scratch);
    const std::uint64_t propagated = copy_propagate(function, scratch);
    const std::uint64_t hoisted = licm(function, scratch);
    const std::uint64_t removed = dce(function, scratch);
    stats.strength_reduced += reduced;
    stats.cse_replaced += replaced;
    stats.copies_propagated += propagated;
    stats.hoisted += hoisted;
    stats.dead_removed += removed;
    if (reduced + replaced + propagated + hoisted + removed == 0) {
      break;
    }
  }
  // The sub-passes compact blocks in place. Give the slack back once, so the
  // optimised IR a compiled program keeps holds no spare capacity.
  for (auto& block : function.blocks) {
    block->instrs.shrink_to_fit();
  }
  return stats;
}

} // namespace

OptStats optimize_function(ir::Function& function) {
  Scratch scratch;
  return optimize(function, scratch);
}

OptStats optimize_module(ir::Module& module) {
  OptStats stats;
  Scratch scratch;
  for (auto& function : module.functions) {
    stats += optimize(*function, scratch);
  }
  return stats;
}

} // namespace cash::passes
