#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/instr.hpp"
#include "ir/type.hpp"

namespace cash::ir {

// A basic block: straight-line instructions ending in one terminator.
struct BasicBlock {
  BlockId id{kNoBlock};
  std::string name;
  std::vector<Instr> instrs;

  const Instr* terminator() const noexcept {
    return instrs.empty() || !instrs.back().is_terminator() ? nullptr
                                                            : &instrs.back();
  }
};

// A local variable slot. Scalars live in the register-like slot file;
// arrays get frame memory (with room for the 3-word info structure that
// Cash/BCC prepend, mirroring Section 3.2's "112 bytes for a 100-byte
// array").
struct LocalSlot {
  std::string name;
  Type type{Type::kInt};
  bool is_array{false};
  std::uint32_t elem_count{0}; // arrays only
  SymbolId symbol{kNoSymbol};  // provenance id (arrays and pointers only)
};

struct Param {
  std::string name;
  Type type{Type::kInt};
  std::int32_t slot{-1};      // parameter values are copied into local slots
};

// A syntactic loop, recorded by the front end (MiniC is fully structured,
// so loop extent is known exactly — no need for alias or interval analysis,
// echoing Section 3.9). Lowering passes use `preheader` to hoist segment
// register loads outside the outermost loop.
struct Loop {
  LoopId id{kNoLoop};
  LoopId parent{kNoLoop};     // enclosing loop, if nested
  int depth{1};               // 1 = outermost
  BlockId preheader{kNoBlock};
  BlockId header{kNoBlock};
  std::vector<BlockId> body;  // all blocks in the loop, header included

  // Pointer symbols re-seated to a *different object* somewhere inside this
  // loop (plain `p = q`, as opposed to `p = p + k`). Hoisting a segment
  // register load for such a pointer would capture a stale segment, so the
  // Cash lowering pass spills them to software checks.
  std::vector<SymbolId> reassigned_ptrs;
};

// Where an array symbol's pointer value can be materialised from — needed by
// the Cash pass to build preheader segment loads.
struct ArraySym {
  enum class Kind : std::uint8_t { kLocalArray, kGlobalArray, kPointerSlot };
  SymbolId id{kNoSymbol};
  Kind kind{Kind::kLocalArray};
  std::int32_t slot{-1};      // local slot (arrays and pointer locals)
  SymbolId global{kNoSymbol}; // global symbol (global arrays)
  std::string name;           // source-level name, for diagnostics
};

struct Function {
  std::string name;
  Type return_type{Type::kVoid};
  std::vector<Param> params;
  std::vector<LocalSlot> locals;
  std::vector<std::unique_ptr<BasicBlock>> blocks;
  std::vector<Loop> loops;
  std::vector<ArraySym> array_syms; // array symbols visible in this function
  std::vector<CallSite> calls;      // kCall sites, by Instr::call
  std::vector<std::int8_t> used_seg_regs; // filled by CashLower: segment
                                          // registers this function clobbers
                                          // (saved/restored at call edges)
  Reg next_reg{0};
  BlockId entry{kNoBlock};

  BasicBlock& block(BlockId id) { return *blocks[static_cast<size_t>(id)]; }
  const BasicBlock& block(BlockId id) const {
    return *blocks[static_cast<size_t>(id)];
  }

  BasicBlock& new_block(std::string name_hint) {
    auto b = std::make_unique<BasicBlock>();
    b->id = static_cast<BlockId>(blocks.size());
    b->name = std::move(name_hint);
    blocks.push_back(std::move(b));
    return *blocks.back();
  }

  Reg new_reg() noexcept { return next_reg++; }

  // The call site of kCall instruction `call`. std::out_of_range if
  // malformed IR names none; the verifier and the decoder reject such IR.
  const CallSite& call_site(const Instr& call) const {
    return calls.at(static_cast<std::size_t>(call.call));
  }

  const ArraySym* find_array_sym(SymbolId id) const noexcept {
    for (const ArraySym& s : array_syms) {
      if (s.id == id) {
        return &s;
      }
    }
    return nullptr;
  }

  // Top-level (depth 1) loops, in program order.
  std::vector<const Loop*> outermost_loops() const {
    std::vector<const Loop*> out;
    for (const Loop& l : loops) {
      if (l.parent == kNoLoop) {
        out.push_back(&l);
      }
    }
    return out;
  }
};

// A global variable. Arrays get a 3-word info structure placed immediately
// before their data, exactly as the paper lays them out.
struct GlobalVar {
  std::string name;
  Type type{Type::kInt};
  bool is_array{false};
  std::uint32_t elem_count{0};
  SymbolId symbol{kNoSymbol};
  std::uint32_t address{0}; // linear address of data, assigned at load time
};

struct Module {
  std::vector<GlobalVar> globals;
  std::vector<std::unique_ptr<Function>> functions;
  SymbolId next_symbol{0};

  Function* find_function(const std::string& name) {
    for (auto& f : functions) {
      if (f->name == name) {
        return f.get();
      }
    }
    return nullptr;
  }
  const Function* find_function(const std::string& name) const {
    return const_cast<Module*>(this)->find_function(name);
  }

  SymbolId new_symbol() noexcept { return next_symbol++; }

  // Whether `index` names a function (CallSite::function).
  bool has_function(std::int32_t index) const noexcept {
    return index >= 0 && static_cast<std::size_t>(index) < functions.size();
  }
};

} // namespace cash::ir
