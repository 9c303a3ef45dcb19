#include "frontend/irgen.hpp"

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "common/memory_map.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"

namespace cash::frontend {

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
using ir::Module;
using ir::Opcode;
using ir::Reg;
using ir::SymbolId;
using ir::UnOp;

// `name` in single quotes, for diagnostics.
std::string quoted(std::string_view name) {
  return "'" + std::string(name) + "'";
}

bool is_comparison(BinaryOp op) {
  return op >= BinaryOp::kEq && op <= BinaryOp::kGe;
}

// The IR operator of any binary operator but && and ||, which come last:
// the others are laid out in BinOp's order.
BinOp to_ir(BinaryOp op) {
  static_assert(static_cast<int>(BinaryOp::kGe) ==
                static_cast<int>(BinOp::kCmpGe));
  return static_cast<BinOp>(op);
}

// A typed value: virtual register plus its MiniC type.
struct RV {
  Reg reg{kNoReg};
  Type type{Type::kInt};
};

// Where a variable lives.
struct VarInfo {
  enum class Kind : std::uint8_t {
    kLocalScalar,  // scalar (incl. pointer) local slot
    kLocalArray,   // array local slot
    kGlobalScalar,
    kGlobalArray,
  };
  Kind kind{Kind::kLocalScalar};
  Type type{Type::kInt};
  std::int32_t slot{-1};       // locals
  SymbolId global{kNoSymbol};  // globals (module symbol)
  SymbolId symbol{kNoSymbol};  // array/pointer provenance symbol
};

// A resolved assignable location.
struct LValue {
  enum class Kind : std::uint8_t { kLocalSlot, kGlobalScalar, kMemory };
  Kind kind{Kind::kLocalSlot};
  Type type{Type::kInt};
  std::int32_t slot{-1};
  SymbolId global{kNoSymbol};
  Reg addr{kNoReg};            // kMemory
  SymbolId array_ref{kNoSymbol};
  // For pointer-typed local slots: the variable's provenance symbol, used
  // for reassignment tracking.
  SymbolId var_symbol{kNoSymbol};
};

struct LoopTargets {
  BlockId break_target;
  BlockId continue_target;
};

// A declaration in scope. Names point into the AST, which outlives the
// generator.
struct ScopedVar {
  std::string_view name;
  VarInfo info;
};

// The generator's working tables, kept per thread and reused across
// compiles. Instructions are emitted into one buffer per block and copied
// into the function once it is complete, so each block's vector is
// allocated once, at its final size.
struct Scratch {
  std::vector<std::vector<Instr>> blocks; // by block id
  std::vector<ScopedVar> vars;            // innermost declarations last
  std::vector<std::size_t> scope_starts;  // first var of each open scope
  std::vector<LoopId> loop_stack;
  std::vector<LoopTargets> loop_targets;
  // Every function's name and declaration index, sorted.
  std::vector<std::pair<std::string_view, std::int32_t>> functions;
};

Scratch& scratch() {
  thread_local Scratch tables;
  return tables;
}

class IrGen {
 public:
  explicit IrGen(DiagnosticSink& diagnostics)
      : diag_(&diagnostics),
        s_(scratch()),
        loop_stack_(s_.loop_stack),
        loop_targets_(s_.loop_targets) {}

  std::unique_ptr<Module> run(const TranslationUnit& unit);

 private:
  // --- plumbing -----------------------------------------------------------
  void error(SourceLoc loc, std::string message) {
    diag_->error(loc, std::move(message));
  }

  // The current block's instructions so far.
  std::vector<Instr>& cur_instrs() {
    return s_.blocks[static_cast<std::size_t>(cur_->id)];
  }

  Instr& emit(Instr instr) {
    instr.loop = loop_stack_.empty() ? kNoLoop : loop_stack_.back();
    std::vector<Instr>& instrs = cur_instrs();
    instrs.push_back(std::move(instr));
    return instrs.back();
  }

  BasicBlock& new_block(std::string name, bool in_current_loops = true) {
    BasicBlock& block = func_->new_block(std::move(name));
    const auto id = static_cast<std::size_t>(block.id);
    if (s_.blocks.size() <= id) {
      s_.blocks.resize(id + 1);
    }
    s_.blocks[id].clear();
    if (in_current_loops) {
      for (LoopId loop : loop_stack_) {
        func_->loops[static_cast<std::size_t>(loop)].body.push_back(block.id);
      }
    }
    return block;
  }

  void set_block(BasicBlock& block) { cur_ = &block; }

  bool terminated() {
    const std::vector<Instr>& instrs = cur_instrs();
    return !instrs.empty() && instrs.back().is_terminator();
  }

  void ensure_jump_to(BlockId target, SourceLoc loc) {
    if (terminated()) {
      return;
    }
    Instr jump;
    jump.op = Opcode::kJump;
    jump.target0 = target;
    jump.loc = loc;
    emit(jump);
  }

  Reg const_int(std::int32_t value, SourceLoc loc) {
    Instr instr;
    instr.op = Opcode::kConstInt;
    instr.type = Type::kInt;
    instr.dst = func_->new_reg();
    instr.int_imm = value;
    instr.loc = loc;
    return emit(instr).dst;
  }

  Reg const_float(float value, SourceLoc loc) {
    Instr instr;
    instr.op = Opcode::kConstFloat;
    instr.type = Type::kFloat;
    instr.dst = func_->new_reg();
    instr.float_imm = value;
    instr.loc = loc;
    return emit(instr).dst;
  }

  // Implicit scalar conversions, C style.
  RV convert(RV value, Type target, SourceLoc loc) {
    if (value.type == target) {
      return value;
    }
    if (value.type == Type::kInt && target == Type::kFloat) {
      Instr instr;
      instr.op = Opcode::kUn;
      instr.un_op = UnOp::kIntToFloat;
      instr.type = Type::kFloat;
      instr.dst = func_->new_reg();
      instr.src0 = value.reg;
      instr.loc = loc;
      return {emit(instr).dst, Type::kFloat};
    }
    if (value.type == Type::kFloat && target == Type::kInt) {
      Instr instr;
      instr.op = Opcode::kUn;
      instr.un_op = UnOp::kFloatToInt;
      instr.type = Type::kInt;
      instr.dst = func_->new_reg();
      instr.src0 = value.reg;
      instr.loc = loc;
      return {emit(instr).dst, Type::kInt};
    }
    if (ir::is_pointer(value.type) && ir::is_pointer(target)) {
      // int* <-> float*: permitted silently (MiniC relaxation of the cast
      // the paper discusses in Section 3.9; bound info is propagated).
      return {value.reg, target};
    }
    error(loc, std::string("cannot convert ") + ir::to_string(value.type) +
                   " to " + ir::to_string(target));
    return {value.reg, target};
  }

  // dst <- (src != 0), into a register the caller allocated.
  void to_bool(Reg dst, Reg src, SourceLoc loc) {
    Instr norm;
    norm.op = Opcode::kBin;
    norm.bin_op = BinOp::kCmpNe;
    norm.type = Type::kInt;
    norm.dst = dst;
    norm.src0 = src;
    norm.src1 = const_int(0, loc);
    norm.loc = loc;
    emit(norm);
  }

  // Ends the block in `if cond goto if_true else if_false`. A float
  // condition is first tested against 0.0, as C does.
  void branch_on(RV cond, BlockId if_true, BlockId if_false, SourceLoc loc) {
    if (cond.type == Type::kFloat) {
      Instr cmp;
      cmp.op = Opcode::kBin;
      cmp.bin_op = BinOp::kCmpNe;
      cmp.type = Type::kFloat;
      cmp.dst = func_->new_reg();
      cmp.src0 = cond.reg;
      cmp.src1 = const_float(0.0F, loc);
      cmp.loc = loc;
      cond = {emit(cmp).dst, Type::kInt};
    }
    Instr branch;
    branch.op = Opcode::kBranch;
    branch.src0 = cond.reg;
    branch.target0 = if_true;
    branch.target1 = if_false;
    branch.loc = loc;
    emit(branch);
  }

  // idx * kWordSize: an element index as a byte offset.
  Reg word_offset(Reg idx, SourceLoc loc) {
    Instr scale;
    scale.op = Opcode::kBin;
    scale.bin_op = BinOp::kMul;
    scale.type = Type::kInt;
    scale.dst = func_->new_reg();
    scale.src0 = idx;
    scale.src1 = const_int(static_cast<std::int32_t>(ir::kWordSize), loc);
    scale.loc = loc;
    return emit(scale).dst;
  }

  // Records a loop entered from `preheader` and makes it the innermost.
  LoopId open_loop(BlockId preheader) {
    ir::Loop loop;
    loop.id = static_cast<LoopId>(func_->loops.size());
    loop.parent = loop_stack_.empty() ? kNoLoop : loop_stack_.back();
    loop.depth = static_cast<int>(loop_stack_.size()) + 1;
    loop.preheader = preheader;
    func_->loops.push_back(loop);
    loop_stack_.push_back(loop.id);
    return loop.id;
  }

  // --- scopes -------------------------------------------------------------
  void push_scope() { s_.scope_starts.push_back(s_.vars.size()); }
  void pop_scope() {
    s_.vars.resize(s_.scope_starts.back());
    s_.scope_starts.pop_back();
  }

  // The innermost declaration of `name`. Valid until the next declare().
  const VarInfo* lookup(std::string_view name) const {
    for (auto it = s_.vars.rbegin(); it != s_.vars.rend(); ++it) {
      if (it->name == name) {
        return &it->info;
      }
    }
    return nullptr;
  }

  void declare(std::string_view name, VarInfo info, SourceLoc loc) {
    for (std::size_t i = s_.scope_starts.back(); i < s_.vars.size(); ++i) {
      if (s_.vars[i].name == name) {
        error(loc, "redeclaration of " + quoted(name));
        return;
      }
    }
    s_.vars.push_back({name, info});
  }

  void register_array_sym(ir::ArraySym sym) {
    if (func_->find_array_sym(sym.id) == nullptr) {
      func_->array_syms.push_back(std::move(sym));
    }
  }

  // Syntactic root of a pointer expression: the pointer/array variable it
  // derives from, or kNoSymbol. Used for reassignment tracking.
  SymbolId root_symbol(const Expr& expr) const {
    switch (expr.kind) {
      case ExprKind::kVarRef: {
        const VarInfo* var = lookup(expr.name);
        return var != nullptr ? var->symbol : kNoSymbol;
      }
      case ExprKind::kBinary: {
        const SymbolId lhs = root_symbol(*expr.lhs);
        return lhs != kNoSymbol ? lhs : root_symbol(*expr.rhs);
      }
      case ExprKind::kAssign:
      case ExprKind::kIncDec:
        return root_symbol(*expr.lhs);
      default:
        return kNoSymbol;
    }
  }

  void note_pointer_reassigned(SymbolId symbol) {
    for (LoopId loop : loop_stack_) {
      auto& list =
          func_->loops[static_cast<std::size_t>(loop)].reassigned_ptrs;
      bool present = false;
      for (SymbolId s : list) {
        present = present || (s == symbol);
      }
      if (!present) {
        list.push_back(symbol);
      }
    }
  }

  // --- declarations -------------------------------------------------------
  void declare_functions(const TranslationUnit& unit);
  // The index of the first function declared as `name`, or -1.
  std::int32_t find_function(std::string_view name) const {
    const auto it = std::lower_bound(
        s_.functions.begin(), s_.functions.end(),
        std::pair<std::string_view, std::int32_t>(name, -1));
    return it != s_.functions.end() && it->first == name ? it->second : -1;
  }
  void gen_function(const FunctionDecl& decl);

  // --- statements ---------------------------------------------------------
  void gen_stmt(const Stmt& stmt);
  void gen_var_decl(const Stmt& stmt);
  void gen_if(const Stmt& stmt);
  void gen_while(const Stmt& stmt);
  void gen_for(const Stmt& stmt);

  // --- expressions --------------------------------------------------------
  RV gen_expr(const Expr& expr);
  RV gen_binary(const Expr& expr);
  RV gen_short_circuit(const Expr& expr);
  RV gen_call(const Expr& expr);
  RV gen_assign(const Expr& expr);
  RV gen_incdec(const Expr& expr);

  std::optional<LValue> gen_lvalue(const Expr& expr);
  RV load_lvalue(const LValue& lvalue, SourceLoc loc);
  void store_lvalue(const LValue& lvalue, RV value, SourceLoc loc);

  // Address of `base[index]`; returns the address register, pointee type,
  // and the array_ref symbol for instrumentation.
  struct ElemAddr {
    Reg addr{kNoReg};
    Type elem{Type::kInt};
    SymbolId array_ref{kNoSymbol};
  };
  std::optional<ElemAddr> gen_elem_addr(const Expr& base, const Expr* index,
                                        SourceLoc loc);

  // Materialises a pointer value for an array/pointer variable reference.
  std::optional<RV> gen_pointer_value(const Expr& expr);

  DiagnosticSink* diag_;
  Scratch& s_;
  std::unique_ptr<Module> module_;
  Function* func_{nullptr};
  BasicBlock* cur_{nullptr};
  std::vector<LoopId>& loop_stack_;
  std::vector<LoopTargets>& loop_targets_;
  const TranslationUnit* unit_{nullptr};
};

void IrGen::declare_functions(const TranslationUnit& unit) {
  unit_ = &unit;
  s_.functions.clear();
  for (std::size_t i = 0; i < unit.functions.size(); ++i) {
    s_.functions.emplace_back(unit.functions[i]->name,
                              static_cast<std::int32_t>(i));
  }
  std::sort(s_.functions.begin(), s_.functions.end());
  // gen_function() appends one function per declaration, in order, so a
  // declaration's index is also its index in Module::functions.
  for (std::size_t i = 0; i < unit.functions.size(); ++i) {
    const FunctionDecl& f = *unit.functions[i];
    if (ir::builtin_of(f.name) != ir::Builtin::kNone) {
      error(f.loc, quoted(f.name) + " shadows a builtin");
    } else if (find_function(f.name) != static_cast<std::int32_t>(i)) {
      error(f.loc, "duplicate function " + quoted(f.name));
    }
  }
}

std::unique_ptr<Module> IrGen::run(const TranslationUnit& unit) {
  // A compile that threw part-way may have left entries behind.
  s_.vars.clear();
  s_.scope_starts.clear();
  loop_stack_.clear();
  loop_targets_.clear();
  module_ = std::make_unique<Module>();
  declare_functions(unit);

  push_scope(); // global scope
  std::uint64_t cursor = kGlobalsBase; // the loader's layout (vm)
  for (const GlobalDecl& g : unit.globals) {
    cursor = g.is_array ? (cursor + 7) / 8 * 8 + array_footprint(g.elem_count)
                        : (cursor + 3) / 4 * 4 + 4;
    if (cursor > kHeapBase) {
      error(g.loc, quoted(g.name) + " does not fit in the global region");
    }
    ir::GlobalVar global;
    global.name = g.name;
    global.type = g.type;
    global.is_array = g.is_array;
    global.elem_count = g.elem_count;
    global.symbol = module_->new_symbol();
    module_->globals.push_back(global);

    VarInfo info;
    info.type = g.is_array ? ir::pointer_to(g.type) : g.type;
    info.kind = g.is_array ? VarInfo::Kind::kGlobalArray
                           : VarInfo::Kind::kGlobalScalar;
    info.global = global.symbol;
    info.symbol = g.is_array || ir::is_pointer(g.type) ? global.symbol
                                                       : kNoSymbol;
    declare(g.name, info, g.loc);
  }

  for (const auto& f : unit.functions) {
    gen_function(*f);
  }
  pop_scope();

  if (module_->find_function("main") == nullptr) {
    error({0, 0}, "program has no main() function");
  }
  return std::move(module_);
}

void IrGen::gen_function(const FunctionDecl& decl) {
  auto function = std::make_unique<Function>();
  function->name = decl.name;
  function->return_type = decl.return_type;
  func_ = function.get();

  push_scope();
  for (const ParamDecl& p : decl.params) {
    ir::Param param;
    param.name = p.name;
    param.type = p.type;
    param.slot = static_cast<std::int32_t>(func_->locals.size());
    func_->params.push_back(param);

    ir::LocalSlot slot;
    slot.name = p.name;
    slot.type = p.type;
    if (ir::is_pointer(p.type)) {
      slot.symbol = module_->new_symbol();
    }
    func_->locals.push_back(slot);

    VarInfo info;
    info.kind = VarInfo::Kind::kLocalScalar;
    info.type = p.type;
    info.slot = param.slot;
    info.symbol = slot.symbol;
    declare(p.name, info, p.loc);

    if (ir::is_pointer(p.type)) {
      ir::ArraySym sym;
      sym.id = slot.symbol;
      sym.kind = ir::ArraySym::Kind::kPointerSlot;
      sym.slot = param.slot;
      sym.name = p.name;
      register_array_sym(std::move(sym));
    }
  }

  BasicBlock& entry = new_block("entry");
  func_->entry = entry.id;
  set_block(entry);

  gen_stmt(*decl.body);

  // Implicit return at fall-off.
  if (!terminated()) {
    Instr ret;
    ret.op = Opcode::kRet;
    ret.loc = decl.loc;
    if (decl.return_type != Type::kVoid) {
      ret.src0 = const_int(0, decl.loc);
      ret.type = decl.return_type;
    }
    emit(ret);
  }
  pop_scope();

  for (auto& block : func_->blocks) {
    std::vector<Instr>& instrs = s_.blocks[static_cast<std::size_t>(block->id)];
    block->instrs.assign(std::make_move_iterator(instrs.begin()),
                         std::make_move_iterator(instrs.end()));
  }

  module_->functions.push_back(std::move(function));
  func_ = nullptr;
  cur_ = nullptr;
}

void IrGen::gen_stmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      push_scope();
      for (const auto& child : stmt.body) {
        gen_stmt(*child);
        if (terminated()) {
          // Code after break/continue/return in this block is unreachable;
          // park it in a fresh block so the verifier stays happy.
          const bool more = (&child != &stmt.body.back());
          if (more) {
            BasicBlock& dead = new_block("unreachable");
            set_block(dead);
          }
        }
      }
      pop_scope();
      break;
    case StmtKind::kVarDecl:
      gen_var_decl(stmt);
      break;
    case StmtKind::kExpr:
      if (stmt.expr != nullptr) {
        gen_expr(*stmt.expr);
      }
      break;
    case StmtKind::kIf:
      gen_if(stmt);
      break;
    case StmtKind::kWhile:
      gen_while(stmt);
      break;
    case StmtKind::kFor:
      gen_for(stmt);
      break;
    case StmtKind::kReturn: {
      Instr ret;
      ret.op = Opcode::kRet;
      ret.loc = stmt.loc;
      if (stmt.expr != nullptr) {
        if (func_->return_type == Type::kVoid) {
          error(stmt.loc, "returning a value from a void function");
        }
        RV value = gen_expr(*stmt.expr);
        value = convert(value, func_->return_type, stmt.loc);
        ret.src0 = value.reg;
        ret.type = func_->return_type;
      } else if (func_->return_type != Type::kVoid) {
        error(stmt.loc, "non-void function must return a value");
      }
      emit(ret);
      break;
    }
    case StmtKind::kBreak:
      if (loop_targets_.empty()) {
        error(stmt.loc, "break outside a loop");
        break;
      }
      ensure_jump_to(loop_targets_.back().break_target, stmt.loc);
      break;
    case StmtKind::kContinue:
      if (loop_targets_.empty()) {
        error(stmt.loc, "continue outside a loop");
        break;
      }
      ensure_jump_to(loop_targets_.back().continue_target, stmt.loc);
      break;
  }
}

void IrGen::gen_var_decl(const Stmt& stmt) {
  if (stmt.decl_is_array &&
      array_footprint(stmt.decl_elem_count) > kStackTop - kStackLimit) {
    error(stmt.loc, quoted(stmt.decl_name) + " does not fit in the stack");
  }
  ir::LocalSlot slot;
  slot.name = stmt.decl_name;
  slot.type = stmt.decl_type;
  slot.is_array = stmt.decl_is_array;
  slot.elem_count = stmt.decl_elem_count;
  if (stmt.decl_is_array || ir::is_pointer(stmt.decl_type)) {
    slot.symbol = module_->new_symbol();
  }
  const std::int32_t index = static_cast<std::int32_t>(func_->locals.size());
  func_->locals.push_back(slot);

  VarInfo info;
  info.kind = stmt.decl_is_array ? VarInfo::Kind::kLocalArray
                                 : VarInfo::Kind::kLocalScalar;
  info.type = stmt.decl_is_array ? ir::pointer_to(stmt.decl_type)
                                 : stmt.decl_type;
  info.slot = index;
  info.symbol = slot.symbol;
  declare(stmt.decl_name, info, stmt.loc);

  if (slot.symbol != kNoSymbol) {
    ir::ArraySym sym;
    sym.id = slot.symbol;
    sym.kind = stmt.decl_is_array ? ir::ArraySym::Kind::kLocalArray
                                  : ir::ArraySym::Kind::kPointerSlot;
    sym.slot = index;
    sym.name = stmt.decl_name;
    register_array_sym(std::move(sym));
  }

  if (stmt.expr != nullptr) {
    RV value = gen_expr(*stmt.expr);
    value = convert(value, info.type, stmt.loc);
    Instr store;
    store.op = Opcode::kStoreLocal;
    store.type = info.type;
    store.slot = index;
    store.src0 = value.reg;
    store.loc = stmt.loc;
    emit(store);
    if (ir::is_pointer(info.type)) {
      const SymbolId rhs_root =
          stmt.expr != nullptr ? root_symbol(*stmt.expr) : kNoSymbol;
      if (!loop_stack_.empty() && rhs_root != slot.symbol) {
        note_pointer_reassigned(slot.symbol);
      }
    }
  }
}

void IrGen::gen_if(const Stmt& stmt) {
  const RV cond = gen_expr(*stmt.cond);
  BasicBlock& then_block = new_block("if.then");
  BasicBlock& merge = new_block("if.end");
  BlockId else_id = merge.id;
  BasicBlock* else_block = nullptr;
  if (stmt.else_branch != nullptr) {
    else_block = &new_block("if.else");
    else_id = else_block->id;
  }

  branch_on(cond, then_block.id, else_id, stmt.loc);

  set_block(then_block);
  gen_stmt(*stmt.then_branch);
  ensure_jump_to(merge.id, stmt.loc);

  if (else_block != nullptr) {
    set_block(*else_block);
    gen_stmt(*stmt.else_branch);
    ensure_jump_to(merge.id, stmt.loc);
  }
  set_block(merge);
}

void IrGen::gen_while(const Stmt& stmt) {
  BasicBlock& preheader = new_block("while.preheader");
  BasicBlock& exit = new_block("while.exit");
  ensure_jump_to(preheader.id, stmt.loc);

  const LoopId loop = open_loop(preheader.id);
  BasicBlock& header = new_block("while.header");
  func_->loops[static_cast<std::size_t>(loop)].header = header.id;
  loop_targets_.push_back({exit.id, header.id});

  set_block(preheader);
  ensure_jump_to(header.id, stmt.loc);

  set_block(header);
  const RV cond = gen_expr(*stmt.cond);
  BasicBlock& body = new_block("while.body");
  branch_on(cond, body.id, exit.id, stmt.loc);

  set_block(body);
  gen_stmt(*stmt.then_branch);
  ensure_jump_to(header.id, stmt.loc);

  loop_targets_.pop_back();
  loop_stack_.pop_back();
  set_block(exit);
}

void IrGen::gen_for(const Stmt& stmt) {
  BasicBlock& preheader = new_block("for.preheader");
  BasicBlock& exit = new_block("for.exit");
  ensure_jump_to(preheader.id, stmt.loc);

  set_block(preheader);
  if (stmt.for_init != nullptr) {
    gen_expr(*stmt.for_init);
  }

  const LoopId loop = open_loop(preheader.id);
  BasicBlock& header = new_block("for.header");
  BasicBlock& step = new_block("for.step");
  func_->loops[static_cast<std::size_t>(loop)].header = header.id;
  loop_targets_.push_back({exit.id, step.id});

  set_block(preheader);
  ensure_jump_to(header.id, stmt.loc);

  set_block(header);
  if (stmt.cond != nullptr) {
    const RV cond = gen_expr(*stmt.cond);
    BasicBlock& body = new_block("for.body");
    branch_on(cond, body.id, exit.id, stmt.loc);
    set_block(body);
  } else {
    BasicBlock& body = new_block("for.body");
    ensure_jump_to(body.id, stmt.loc);
    set_block(body);
  }

  gen_stmt(*stmt.then_branch);
  ensure_jump_to(step.id, stmt.loc);

  set_block(step);
  if (stmt.for_step != nullptr) {
    gen_expr(*stmt.for_step);
  }
  ensure_jump_to(header.id, stmt.loc);

  loop_targets_.pop_back();
  loop_stack_.pop_back();
  set_block(exit);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

std::optional<RV> IrGen::gen_pointer_value(const Expr& expr) {
  const VarInfo* var = lookup(expr.name);
  if (var == nullptr) {
    error(expr.loc, "use of undeclared identifier " + quoted(expr.name));
    return std::nullopt;
  }
  switch (var->kind) {
    case VarInfo::Kind::kLocalArray: {
      Instr instr;
      instr.op = Opcode::kAddrLocal;
      instr.type = var->type;
      instr.dst = func_->new_reg();
      instr.slot = var->slot;
      instr.array_ref = var->symbol;
      instr.loc = expr.loc;
      return RV{emit(instr).dst, var->type};
    }
    case VarInfo::Kind::kGlobalArray: {
      Instr instr;
      instr.op = Opcode::kAddrGlobal;
      instr.type = var->type;
      instr.dst = func_->new_reg();
      instr.symbol = var->global;
      instr.array_ref = var->symbol;
      instr.loc = expr.loc;
      // Global arrays referenced here become visible to the Cash pass.
      ir::ArraySym sym;
      sym.id = var->symbol;
      sym.kind = ir::ArraySym::Kind::kGlobalArray;
      sym.global = var->global;
      sym.name = expr.name;
      register_array_sym(std::move(sym));
      return RV{emit(instr).dst, var->type};
    }
    case VarInfo::Kind::kLocalScalar:
      if (ir::is_pointer(var->type)) {
        Instr instr;
        instr.op = Opcode::kLoadLocal;
        instr.type = var->type;
        instr.dst = func_->new_reg();
        instr.slot = var->slot;
        instr.loc = expr.loc;
        return RV{emit(instr).dst, var->type};
      }
      break;
    case VarInfo::Kind::kGlobalScalar:
      if (ir::is_pointer(var->type)) {
        Instr instr;
        instr.op = Opcode::kLoadGlobal;
        instr.type = var->type;
        instr.dst = func_->new_reg();
        instr.symbol = var->global;
        instr.loc = expr.loc;
        return RV{emit(instr).dst, var->type};
      }
      break;
  }
  return std::nullopt;
}

std::optional<IrGen::ElemAddr> IrGen::gen_elem_addr(const Expr& base,
                                                    const Expr* index,
                                                    SourceLoc loc) {
  RV base_value{kNoReg, Type::kVoid};
  if (base.kind == ExprKind::kVarRef) {
    std::optional<RV> ptr = gen_pointer_value(base);
    if (!ptr.has_value()) {
      error(loc, quoted(base.name) + " is not an array or pointer");
      return std::nullopt;
    }
    base_value = *ptr;
  } else {
    base_value = gen_expr(base);
    if (!ir::is_pointer(base_value.type)) {
      error(loc, "indexed expression is not a pointer");
      return std::nullopt;
    }
  }

  Reg addr = base_value.reg;
  if (index != nullptr) {
    RV idx = gen_expr(*index);
    idx = convert(idx, Type::kInt, loc);
    const Reg offset = word_offset(idx.reg, loc);

    Instr add;
    add.op = Opcode::kPtrAdd;
    add.type = base_value.type;
    add.dst = func_->new_reg();
    add.src0 = base_value.reg;
    add.src1 = offset;
    add.loc = loc;
    addr = emit(add).dst;
  }

  ElemAddr out;
  out.addr = addr;
  out.elem = ir::pointee(base_value.type);
  out.array_ref = root_symbol(base);
  return out;
}

std::optional<LValue> IrGen::gen_lvalue(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kVarRef: {
      const VarInfo* var = lookup(expr.name);
      if (var == nullptr) {
        error(expr.loc, "use of undeclared identifier " + quoted(expr.name));
        return std::nullopt;
      }
      if (var->kind == VarInfo::Kind::kLocalArray ||
          var->kind == VarInfo::Kind::kGlobalArray) {
        error(expr.loc, "cannot assign to array " + quoted(expr.name));
        return std::nullopt;
      }
      LValue lvalue;
      lvalue.type = var->type;
      lvalue.var_symbol = var->symbol;
      if (var->kind == VarInfo::Kind::kLocalScalar) {
        lvalue.kind = LValue::Kind::kLocalSlot;
        lvalue.slot = var->slot;
      } else {
        lvalue.kind = LValue::Kind::kGlobalScalar;
        lvalue.global = var->global;
      }
      return lvalue;
    }
    case ExprKind::kIndex: {
      std::optional<ElemAddr> elem =
          gen_elem_addr(*expr.lhs, expr.rhs, expr.loc);
      if (!elem.has_value()) {
        return std::nullopt;
      }
      LValue lvalue;
      lvalue.kind = LValue::Kind::kMemory;
      lvalue.type = elem->elem;
      lvalue.addr = elem->addr;
      lvalue.array_ref = elem->array_ref;
      return lvalue;
    }
    case ExprKind::kDeref: {
      std::optional<ElemAddr> elem =
          gen_elem_addr(*expr.lhs, nullptr, expr.loc);
      if (!elem.has_value()) {
        return std::nullopt;
      }
      LValue lvalue;
      lvalue.kind = LValue::Kind::kMemory;
      lvalue.type = elem->elem;
      lvalue.addr = elem->addr;
      lvalue.array_ref = elem->array_ref;
      return lvalue;
    }
    default:
      error(expr.loc, "expression is not assignable");
      return std::nullopt;
  }
}

RV IrGen::load_lvalue(const LValue& lvalue, SourceLoc loc) {
  Instr instr;
  instr.type = lvalue.type;
  instr.dst = func_->new_reg();
  instr.loc = loc;
  switch (lvalue.kind) {
    case LValue::Kind::kLocalSlot:
      instr.op = Opcode::kLoadLocal;
      instr.slot = lvalue.slot;
      break;
    case LValue::Kind::kGlobalScalar:
      instr.op = Opcode::kLoadGlobal;
      instr.symbol = lvalue.global;
      break;
    case LValue::Kind::kMemory:
      instr.op = Opcode::kLoad;
      instr.src0 = lvalue.addr;
      instr.array_ref = lvalue.array_ref;
      break;
  }
  return {emit(instr).dst, lvalue.type};
}

void IrGen::store_lvalue(const LValue& lvalue, RV value, SourceLoc loc) {
  Instr instr;
  instr.type = lvalue.type;
  instr.loc = loc;
  switch (lvalue.kind) {
    case LValue::Kind::kLocalSlot:
      instr.op = Opcode::kStoreLocal;
      instr.slot = lvalue.slot;
      instr.src0 = value.reg;
      break;
    case LValue::Kind::kGlobalScalar:
      instr.op = Opcode::kStoreGlobal;
      instr.symbol = lvalue.global;
      instr.src0 = value.reg;
      break;
    case LValue::Kind::kMemory:
      instr.op = Opcode::kStore;
      instr.src0 = lvalue.addr;
      instr.src1 = value.reg;
      instr.array_ref = lvalue.array_ref;
      break;
  }
  emit(instr);
}

RV IrGen::gen_assign(const Expr& expr) {
  std::optional<LValue> lvalue = gen_lvalue(*expr.lhs);
  if (!lvalue.has_value()) {
    gen_expr(*expr.rhs); // still type-check the RHS
    return {const_int(0, expr.loc), Type::kInt};
  }

  RV value{kNoReg, Type::kInt};
  if (expr.assign_op == AssignOp::kNone) {
    value = gen_expr(*expr.rhs);
    if (ir::is_pointer(lvalue->type) && value.type == Type::kInt) {
      // Allow `p = 0` — the null pointer.
      // (Any other int expression is a type error in MiniC.)
      if (expr.rhs->kind != ExprKind::kIntLit || expr.rhs->int_value != 0) {
        error(expr.loc, "cannot assign int to pointer");
      }
      value.type = lvalue->type;
    } else {
      value = convert(value, lvalue->type, expr.loc);
    }
  } else {
    RV current = load_lvalue(*lvalue, expr.loc);
    RV rhs = gen_expr(*expr.rhs);
    if (ir::is_pointer(current.type)) {
      // p += n: pointer stepping in elements.
      if (expr.assign_op != AssignOp::kAdd && expr.assign_op != AssignOp::kSub) {
        error(expr.loc, "only += and -= apply to pointers");
      }
      rhs = convert(rhs, Type::kInt, expr.loc);
      Reg offset = word_offset(rhs.reg, expr.loc);
      if (expr.assign_op == AssignOp::kSub) {
        Instr neg;
        neg.op = Opcode::kUn;
        neg.un_op = UnOp::kNeg;
        neg.type = Type::kInt;
        neg.dst = func_->new_reg();
        neg.src0 = offset;
        neg.loc = expr.loc;
        offset = emit(neg).dst;
      }
      Instr add;
      add.op = Opcode::kPtrAdd;
      add.type = current.type;
      add.dst = func_->new_reg();
      add.src0 = current.reg;
      add.src1 = offset;
      add.loc = expr.loc;
      value = {emit(add).dst, current.type};
    } else {
      const Type common = (current.type == Type::kFloat ||
                           rhs.type == Type::kFloat)
                              ? Type::kFloat
                              : Type::kInt;
      current = convert(current, common, expr.loc);
      rhs = convert(rhs, common, expr.loc);
      Instr bin;
      bin.op = Opcode::kBin;
      bin.type = common;
      bin.dst = func_->new_reg();
      bin.src0 = current.reg;
      bin.src1 = rhs.reg;
      bin.loc = expr.loc;
      // AssignOp kAdd..kRem follow kNone in BinOp's order.
      static_assert(static_cast<int>(AssignOp::kRem) - 1 ==
                    static_cast<int>(BinOp::kRem));
      bin.bin_op =
          static_cast<BinOp>(static_cast<int>(expr.assign_op) - 1);
      value = {emit(bin).dst, common};
      value = convert(value, lvalue->type, expr.loc);
    }
  }

  store_lvalue(*lvalue, value, expr.loc);

  // Pointer reassignment tracking for the Cash hoisting decision.
  if (ir::is_pointer(lvalue->type) && lvalue->var_symbol != kNoSymbol &&
      !loop_stack_.empty() && expr.assign_op == AssignOp::kNone) {
    const SymbolId rhs_root = root_symbol(*expr.rhs);
    if (rhs_root != lvalue->var_symbol) {
      note_pointer_reassigned(lvalue->var_symbol);
    }
  }
  return value;
}

RV IrGen::gen_incdec(const Expr& expr) {
  std::optional<LValue> lvalue = gen_lvalue(*expr.lhs);
  if (!lvalue.has_value()) {
    return {const_int(0, expr.loc), Type::kInt};
  }
  RV old_value = load_lvalue(*lvalue, expr.loc);

  RV new_value{kNoReg, old_value.type};
  if (ir::is_pointer(old_value.type)) {
    Instr add;
    add.op = Opcode::kPtrAdd;
    add.type = old_value.type;
    add.dst = func_->new_reg();
    add.src0 = old_value.reg;
    add.src1 = const_int(expr.is_increment
                             ? static_cast<std::int32_t>(ir::kWordSize)
                             : -static_cast<std::int32_t>(ir::kWordSize),
                         expr.loc);
    add.loc = expr.loc;
    new_value.reg = emit(add).dst;
  } else {
    Instr bin;
    bin.op = Opcode::kBin;
    bin.bin_op = expr.is_increment ? BinOp::kAdd : BinOp::kSub;
    bin.type = old_value.type;
    bin.dst = func_->new_reg();
    bin.src0 = old_value.reg;
    bin.src1 = old_value.type == Type::kFloat ? const_float(1.0F, expr.loc)
                                              : const_int(1, expr.loc);
    bin.loc = expr.loc;
    new_value.reg = emit(bin).dst;
  }
  store_lvalue(*lvalue, new_value, expr.loc);
  return expr.is_prefix ? new_value : old_value;
}

RV IrGen::gen_short_circuit(const Expr& expr) {
  // a && b / a || b with control flow; the 0/1 result is merged through a
  // shared register (legal in this non-SSA IR).
  const Reg result = func_->new_reg();
  BasicBlock& rhs_block = new_block("sc.rhs");
  BasicBlock& merge = new_block("sc.end");

  RV lhs = gen_expr(*expr.lhs);
  lhs = convert(lhs, Type::kInt, expr.loc);

  // Normalise lhs to 0/1 into `result`. On && a true lhs evaluates the
  // rhs and a false one short-circuits to 0; || is the mirror image.
  to_bool(result, lhs.reg, expr.loc);
  const bool is_and = expr.binary_op == BinaryOp::kLogicalAnd;
  branch_on({result, Type::kInt}, is_and ? rhs_block.id : merge.id,
            is_and ? merge.id : rhs_block.id, expr.loc);

  set_block(rhs_block);
  const RV rhs = convert(gen_expr(*expr.rhs), Type::kInt, expr.loc);
  to_bool(result, rhs.reg, expr.loc);
  ensure_jump_to(merge.id, expr.loc);

  set_block(merge);
  return {result, Type::kInt};
}

RV IrGen::gen_binary(const Expr& expr) {
  if (expr.binary_op == BinaryOp::kLogicalAnd ||
      expr.binary_op == BinaryOp::kLogicalOr) {
    return gen_short_circuit(expr);
  }

  RV lhs = gen_expr(*expr.lhs);
  RV rhs = gen_expr(*expr.rhs);

  // Pointer arithmetic: p + n, n + p, p - n (element-wise), p - q, p <op> q.
  const bool lhs_ptr = ir::is_pointer(lhs.type);
  const bool rhs_ptr = ir::is_pointer(rhs.type);
  if (lhs_ptr || rhs_ptr) {
    if (is_comparison(expr.binary_op)) {
      Instr cmp;
      cmp.op = Opcode::kBin;
      cmp.bin_op = to_ir(expr.binary_op);
      cmp.type = Type::kInt;
      cmp.dst = func_->new_reg();
      cmp.src0 = lhs.reg;
      cmp.src1 = rhs.reg;
      cmp.loc = expr.loc;
      return {emit(cmp).dst, Type::kInt};
    }
    if (lhs_ptr && rhs_ptr && expr.binary_op == BinaryOp::kSub) {
      // Pointer difference in elements.
      Instr sub;
      sub.op = Opcode::kBin;
      sub.bin_op = BinOp::kSub;
      sub.type = Type::kInt;
      sub.dst = func_->new_reg();
      sub.src0 = lhs.reg;
      sub.src1 = rhs.reg;
      sub.loc = expr.loc;
      const Reg bytes = emit(sub).dst;
      Instr div;
      div.op = Opcode::kBin;
      div.bin_op = BinOp::kDiv;
      div.type = Type::kInt;
      div.dst = func_->new_reg();
      div.src0 = bytes;
      div.src1 = const_int(static_cast<std::int32_t>(ir::kWordSize),
                           expr.loc);
      div.loc = expr.loc;
      return {emit(div).dst, Type::kInt};
    }
    if ((expr.binary_op == BinaryOp::kAdd ||
         expr.binary_op == BinaryOp::kSub) &&
        (lhs_ptr != rhs_ptr)) {
      RV ptr = lhs_ptr ? lhs : rhs;
      RV idx = lhs_ptr ? rhs : lhs;
      if (!lhs_ptr && expr.binary_op == BinaryOp::kSub) {
        error(expr.loc, "cannot subtract a pointer from an integer");
      }
      idx = convert(idx, Type::kInt, expr.loc);
      Reg offset = word_offset(idx.reg, expr.loc);
      if (expr.binary_op == BinaryOp::kSub) {
        Instr neg;
        neg.op = Opcode::kUn;
        neg.un_op = UnOp::kNeg;
        neg.type = Type::kInt;
        neg.dst = func_->new_reg();
        neg.src0 = offset;
        neg.loc = expr.loc;
        offset = emit(neg).dst;
      }
      Instr add;
      add.op = Opcode::kPtrAdd;
      add.type = ptr.type;
      add.dst = func_->new_reg();
      add.src0 = ptr.reg;
      add.src1 = offset;
      add.loc = expr.loc;
      return {emit(add).dst, ptr.type};
    }
    error(expr.loc, "invalid pointer arithmetic");
    return {const_int(0, expr.loc), Type::kInt};
  }

  // Scalar arithmetic with the usual promotions.
  Type common = Type::kInt;
  if (lhs.type == Type::kFloat || rhs.type == Type::kFloat) {
    common = Type::kFloat;
  }
  const bool int_only = expr.binary_op == BinaryOp::kRem ||
                        expr.binary_op == BinaryOp::kAnd ||
                        expr.binary_op == BinaryOp::kOr ||
                        expr.binary_op == BinaryOp::kXor ||
                        expr.binary_op == BinaryOp::kShl ||
                        expr.binary_op == BinaryOp::kShr;
  if (int_only) {
    if (common == Type::kFloat) {
      error(expr.loc, "operator requires integer operands");
    }
    common = Type::kInt;
  }
  lhs = convert(lhs, common, expr.loc);
  rhs = convert(rhs, common, expr.loc);

  Instr bin;
  bin.op = Opcode::kBin;
  bin.bin_op = to_ir(expr.binary_op);
  bin.type = common;
  bin.dst = func_->new_reg();
  bin.src0 = lhs.reg;
  bin.src1 = rhs.reg;
  bin.loc = expr.loc;
  return {emit(bin).dst,
          is_comparison(expr.binary_op) ? Type::kInt : common};
}

RV IrGen::gen_call(const Expr& expr) {
  ir::CallSite site;
  site.builtin = ir::builtin_of(expr.name);
  const ir::BuiltinSignature* builtin = nullptr;
  const FunctionDecl* callee = nullptr;
  if (site.builtin != ir::Builtin::kNone) {
    builtin = &ir::signature(site.builtin);
  } else {
    site.function = find_function(expr.name);
    if (site.function < 0) {
      error(expr.loc, "call to undeclared function " + quoted(expr.name));
      return {const_int(0, expr.loc), Type::kInt};
    }
    callee = unit_->functions[static_cast<std::size_t>(site.function)];
  }
  const std::size_t param_count =
      builtin != nullptr ? builtin->arity : callee->params.size();
  const auto param_type = [&](std::size_t i) {
    return builtin != nullptr ? builtin->params[i] : callee->params[i].type;
  };
  const Type return_type =
      builtin != nullptr ? builtin->result : callee->return_type;

  if (expr.args.size() != param_count) {
    error(expr.loc, "wrong number of arguments to " + quoted(expr.name));
  }

  site.callee = expr.name;
  site.args.reserve(expr.args.size());
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    RV arg = gen_expr(*expr.args[i]);
    if (i < param_count) {
      const Type want = param_type(i);
      if (ir::is_pointer(want) && ir::is_pointer(arg.type)) {
        // any pointer flavour is accepted (free(float*) etc.)
      } else if (ir::is_pointer(want) != ir::is_pointer(arg.type)) {
        error(expr.args[i]->loc, "argument " + std::to_string(i + 1) +
                                     " of " + quoted(expr.name) +
                                     " has the wrong type");
      } else {
        arg = convert(arg, want, expr.args[i]->loc);
      }
    }
    site.args.push_back(arg.reg);
  }
  Instr call;
  call.op = Opcode::kCall;
  call.type = return_type;
  call.loc = expr.loc;
  call.call = static_cast<std::int32_t>(func_->calls.size());
  func_->calls.push_back(std::move(site));
  if (return_type != Type::kVoid) {
    call.dst = func_->new_reg();
  }
  const Reg dst = emit(call).dst;
  return {dst, return_type};
}

RV IrGen::gen_expr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      return {const_int(expr.int_value, expr.loc), Type::kInt};
    case ExprKind::kFloatLit:
      return {const_float(expr.float_value, expr.loc), Type::kFloat};
    case ExprKind::kVarRef: {
      const VarInfo* var = lookup(expr.name);
      if (var == nullptr) {
        error(expr.loc, "use of undeclared identifier " + quoted(expr.name));
        return {const_int(0, expr.loc), Type::kInt};
      }
      if (var->kind == VarInfo::Kind::kLocalArray ||
          var->kind == VarInfo::Kind::kGlobalArray) {
        // Array decays to pointer.
        std::optional<RV> ptr = gen_pointer_value(expr);
        return ptr.value_or(RV{const_int(0, expr.loc), Type::kInt});
      }
      LValue lvalue;
      lvalue.type = var->type;
      if (var->kind == VarInfo::Kind::kLocalScalar) {
        lvalue.kind = LValue::Kind::kLocalSlot;
        lvalue.slot = var->slot;
      } else {
        lvalue.kind = LValue::Kind::kGlobalScalar;
        lvalue.global = var->global;
      }
      return load_lvalue(lvalue, expr.loc);
    }
    case ExprKind::kIndex:
    case ExprKind::kDeref: {
      std::optional<LValue> lvalue = gen_lvalue(expr);
      if (!lvalue.has_value()) {
        return {const_int(0, expr.loc), Type::kInt};
      }
      return load_lvalue(*lvalue, expr.loc);
    }
    case ExprKind::kUnary: {
      RV operand = gen_expr(*expr.lhs);
      Instr instr;
      instr.op = Opcode::kUn;
      instr.dst = func_->new_reg();
      instr.loc = expr.loc;
      switch (expr.unary_op) {
        case UnaryOp::kNeg:
          if (ir::is_pointer(operand.type)) {
            error(expr.loc, "cannot negate a pointer");
          }
          instr.un_op = UnOp::kNeg;
          instr.type = operand.type;
          instr.src0 = operand.reg;
          return {emit(instr).dst, operand.type};
        case UnaryOp::kNot:
          operand = convert(operand, Type::kInt, expr.loc);
          instr.un_op = UnOp::kLogicalNot;
          instr.type = Type::kInt;
          instr.src0 = operand.reg;
          return {emit(instr).dst, Type::kInt};
        case UnaryOp::kBitNot:
          operand = convert(operand, Type::kInt, expr.loc);
          instr.un_op = UnOp::kBitNot;
          instr.type = Type::kInt;
          instr.src0 = operand.reg;
          return {emit(instr).dst, Type::kInt};
      }
      return operand;
    }
    case ExprKind::kBinary:
      return gen_binary(expr);
    case ExprKind::kAssign:
      return gen_assign(expr);
    case ExprKind::kIncDec:
      return gen_incdec(expr);
    case ExprKind::kCall:
      return gen_call(expr);
  }
  return {const_int(0, expr.loc), Type::kInt};
}

} // namespace

std::unique_ptr<ir::Module> compile_to_ir(std::string_view source,
                                          DiagnosticSink& diagnostics) {
  Lexer lexer(source, diagnostics);
  std::vector<Token> tokens = lexer.lex();
  if (diagnostics.has_errors()) {
    return nullptr;
  }
  Parser parser(std::move(tokens), diagnostics);
  TranslationUnit unit = parser.parse();
  if (diagnostics.has_errors()) {
    return nullptr;
  }
  IrGen generator(diagnostics);
  std::unique_ptr<ir::Module> module = generator.run(unit);
  if (diagnostics.has_errors()) {
    return nullptr;
  }
  return module;
}

} // namespace cash::frontend
