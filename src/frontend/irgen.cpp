#include "frontend/irgen.hpp"

#include <map>
#include <optional>
#include <string_view>
#include <vector>

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

struct Builtin {
  Type return_type;
  std::vector<Type> params;
};

const std::map<std::string, Builtin, std::less<>>& builtins() {
  static const std::map<std::string, Builtin, std::less<>> kBuiltins = {
      {"malloc", {Type::kIntPtr, {Type::kInt}}},
      {"free", {Type::kVoid, {Type::kIntPtr}}},
      {"sqrt", {Type::kFloat, {Type::kFloat}}},
      {"fabs", {Type::kFloat, {Type::kFloat}}},
      {"sin", {Type::kFloat, {Type::kFloat}}},
      {"cos", {Type::kFloat, {Type::kFloat}}},
      {"exp", {Type::kFloat, {Type::kFloat}}},
      {"log", {Type::kFloat, {Type::kFloat}}},
      {"floor", {Type::kFloat, {Type::kFloat}}},
      {"pow", {Type::kFloat, {Type::kFloat, Type::kFloat}}},
      {"abs", {Type::kInt, {Type::kInt}}},
      {"print_int", {Type::kVoid, {Type::kInt}}},
      {"print_float", {Type::kVoid, {Type::kFloat}}},
      {"rand", {Type::kInt, {}}},
      {"srand", {Type::kVoid, {Type::kInt}}},
  };
  return kBuiltins;
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

struct FuncSig {
  Type return_type;
  std::vector<Type> params;
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

  void declare(const std::string& name, VarInfo info, SourceLoc loc) {
    for (std::size_t i = s_.scope_starts.back(); i < s_.vars.size(); ++i) {
      if (s_.vars[i].name == name) {
        error(loc, "redeclaration of '" + name + "'");
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
  void collect_signatures(const TranslationUnit& unit);
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
  std::map<std::string, FuncSig> signatures_;
};

void IrGen::collect_signatures(const TranslationUnit& unit) {
  for (const auto& f : unit.functions) {
    if (builtins().count(f->name) != 0) {
      error(f->loc, "'" + f->name + "' shadows a builtin");
      continue;
    }
    if (signatures_.count(f->name) != 0) {
      error(f->loc, "duplicate function '" + f->name + "'");
      continue;
    }
    FuncSig sig;
    sig.return_type = f->return_type;
    for (const ParamDecl& p : f->params) {
      sig.params.push_back(p.type);
    }
    signatures_[f->name] = std::move(sig);
  }
}

std::unique_ptr<Module> IrGen::run(const TranslationUnit& unit) {
  // A compile that threw part-way may have left entries behind.
  s_.vars.clear();
  s_.scope_starts.clear();
  loop_stack_.clear();
  loop_targets_.clear();
  module_ = std::make_unique<Module>();
  collect_signatures(unit);

  push_scope(); // global scope
  for (const GlobalDecl& g : unit.globals) {
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
  RV cond = gen_expr(*stmt.cond);
  if (cond.type == Type::kFloat) {
    // C truth test: value != 0.0.
    Instr cmp;
    cmp.op = Opcode::kBin;
    cmp.bin_op = BinOp::kCmpNe;
    cmp.type = Type::kFloat;
    cmp.dst = func_->new_reg();
    cmp.src0 = cond.reg;
    cmp.src1 = const_float(0.0F, stmt.loc);
    cmp.loc = stmt.loc;
    cond = {emit(cmp).dst, Type::kInt};
  }

  BasicBlock& then_block = new_block("if.then");
  BasicBlock& merge = new_block("if.end");
  BlockId else_id = merge.id;
  BasicBlock* else_block = nullptr;
  if (stmt.else_branch != nullptr) {
    else_block = &new_block("if.else");
    else_id = else_block->id;
  }

  Instr branch;
  branch.op = Opcode::kBranch;
  branch.src0 = cond.reg;
  branch.target0 = then_block.id;
  branch.target1 = else_id;
  branch.loc = stmt.loc;
  emit(branch);

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

  ir::Loop loop;
  loop.id = static_cast<LoopId>(func_->loops.size());
  loop.parent = loop_stack_.empty() ? kNoLoop : loop_stack_.back();
  loop.depth = static_cast<int>(loop_stack_.size()) + 1;
  loop.preheader = preheader.id;
  func_->loops.push_back(loop);
  loop_stack_.push_back(loop.id);

  BasicBlock& header = new_block("while.header");
  func_->loops[static_cast<std::size_t>(loop.id)].header = header.id;
  loop_targets_.push_back({exit.id, header.id});

  set_block(preheader);
  ensure_jump_to(header.id, stmt.loc);

  set_block(header);
  RV cond = gen_expr(*stmt.cond);
  if (cond.type == Type::kFloat) {
    Instr cmp;
    cmp.op = Opcode::kBin;
    cmp.bin_op = BinOp::kCmpNe;
    cmp.type = Type::kFloat;
    cmp.dst = func_->new_reg();
    cmp.src0 = cond.reg;
    cmp.src1 = const_float(0.0F, stmt.loc);
    cmp.loc = stmt.loc;
    cond = {emit(cmp).dst, Type::kInt};
  }
  BasicBlock& body = new_block("while.body");
  Instr branch;
  branch.op = Opcode::kBranch;
  branch.src0 = cond.reg;
  branch.target0 = body.id;
  branch.target1 = exit.id;
  branch.loc = stmt.loc;
  emit(branch);

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

  ir::Loop loop;
  loop.id = static_cast<LoopId>(func_->loops.size());
  loop.parent = loop_stack_.empty() ? kNoLoop : loop_stack_.back();
  loop.depth = static_cast<int>(loop_stack_.size()) + 1;
  loop.preheader = preheader.id;
  func_->loops.push_back(loop);
  loop_stack_.push_back(loop.id);

  BasicBlock& header = new_block("for.header");
  BasicBlock& step = new_block("for.step");
  func_->loops[static_cast<std::size_t>(loop.id)].header = header.id;
  loop_targets_.push_back({exit.id, step.id});

  set_block(preheader);
  ensure_jump_to(header.id, stmt.loc);

  set_block(header);
  if (stmt.cond != nullptr) {
    RV cond = gen_expr(*stmt.cond);
    if (cond.type == Type::kFloat) {
      Instr cmp;
      cmp.op = Opcode::kBin;
      cmp.bin_op = BinOp::kCmpNe;
      cmp.type = Type::kFloat;
      cmp.dst = func_->new_reg();
      cmp.src0 = cond.reg;
      cmp.src1 = const_float(0.0F, stmt.loc);
      cmp.loc = stmt.loc;
      cond = {emit(cmp).dst, Type::kInt};
    }
    BasicBlock& body = new_block("for.body");
    Instr branch;
    branch.op = Opcode::kBranch;
    branch.src0 = cond.reg;
    branch.target0 = body.id;
    branch.target1 = exit.id;
    branch.loc = stmt.loc;
    emit(branch);
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
    error(expr.loc, "use of undeclared identifier '" + expr.name + "'");
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
      error(loc, "'" + base.name + "' is not an array or pointer");
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
    // byte offset = index * 4
    Instr scale;
    scale.op = Opcode::kBin;
    scale.bin_op = BinOp::kMul;
    scale.type = Type::kInt;
    scale.dst = func_->new_reg();
    scale.src0 = idx.reg;
    scale.src1 = const_int(static_cast<std::int32_t>(ir::kWordSize), loc);
    scale.loc = loc;
    const Reg offset = emit(scale).dst;

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
        error(expr.loc, "use of undeclared identifier '" + expr.name + "'");
        return std::nullopt;
      }
      if (var->kind == VarInfo::Kind::kLocalArray ||
          var->kind == VarInfo::Kind::kGlobalArray) {
        error(expr.loc, "cannot assign to array '" + expr.name + "'");
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
          gen_elem_addr(*expr.lhs, expr.rhs.get(), expr.loc);
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
      Instr scale;
      scale.op = Opcode::kBin;
      scale.bin_op = BinOp::kMul;
      scale.type = Type::kInt;
      scale.dst = func_->new_reg();
      scale.src0 = rhs.reg;
      scale.src1 = const_int(static_cast<std::int32_t>(ir::kWordSize),
                             expr.loc);
      scale.loc = expr.loc;
      Reg offset = emit(scale).dst;
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
      switch (expr.assign_op) {
        case AssignOp::kAdd: bin.bin_op = BinOp::kAdd; break;
        case AssignOp::kSub: bin.bin_op = BinOp::kSub; break;
        case AssignOp::kMul: bin.bin_op = BinOp::kMul; break;
        case AssignOp::kDiv: bin.bin_op = BinOp::kDiv; break;
        case AssignOp::kRem: bin.bin_op = BinOp::kRem; break;
        case AssignOp::kNone: break;
      }
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

  // Normalise lhs to 0/1 into `result`.
  Instr norm;
  norm.op = Opcode::kBin;
  norm.bin_op = BinOp::kCmpNe;
  norm.type = Type::kInt;
  norm.dst = result;
  norm.src0 = lhs.reg;
  norm.src1 = const_int(0, expr.loc);
  norm.loc = expr.loc;
  emit(norm);

  Instr branch;
  branch.op = Opcode::kBranch;
  branch.src0 = result;
  branch.loc = expr.loc;
  if (expr.binary_op == BinaryOp::kLogicalAnd) {
    branch.target0 = rhs_block.id; // true -> evaluate RHS
    branch.target1 = merge.id;     // false -> short circuit (result = 0)
  } else {
    branch.target0 = merge.id;     // true -> short circuit (result = 1)
    branch.target1 = rhs_block.id; // false -> evaluate RHS
  }
  emit(branch);

  set_block(rhs_block);
  RV rhs = gen_expr(*expr.rhs);
  rhs = convert(rhs, Type::kInt, expr.loc);
  Instr norm2;
  norm2.op = Opcode::kBin;
  norm2.bin_op = BinOp::kCmpNe;
  norm2.type = Type::kInt;
  norm2.dst = result;
  norm2.src0 = rhs.reg;
  norm2.src1 = const_int(0, expr.loc);
  norm2.loc = expr.loc;
  emit(norm2);
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
    const bool comparison = expr.binary_op == BinaryOp::kEq ||
                            expr.binary_op == BinaryOp::kNe ||
                            expr.binary_op == BinaryOp::kLt ||
                            expr.binary_op == BinaryOp::kLe ||
                            expr.binary_op == BinaryOp::kGt ||
                            expr.binary_op == BinaryOp::kGe;
    if (comparison) {
      Instr cmp;
      cmp.op = Opcode::kBin;
      cmp.type = Type::kInt;
      cmp.dst = func_->new_reg();
      cmp.src0 = lhs.reg;
      cmp.src1 = rhs.reg;
      cmp.loc = expr.loc;
      switch (expr.binary_op) {
        case BinaryOp::kEq: cmp.bin_op = BinOp::kCmpEq; break;
        case BinaryOp::kNe: cmp.bin_op = BinOp::kCmpNe; break;
        case BinaryOp::kLt: cmp.bin_op = BinOp::kCmpLt; break;
        case BinaryOp::kLe: cmp.bin_op = BinOp::kCmpLe; break;
        case BinaryOp::kGt: cmp.bin_op = BinOp::kCmpGt; break;
        default:            cmp.bin_op = BinOp::kCmpGe; break;
      }
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
      Instr scale;
      scale.op = Opcode::kBin;
      scale.bin_op = BinOp::kMul;
      scale.type = Type::kInt;
      scale.dst = func_->new_reg();
      scale.src0 = idx.reg;
      scale.src1 = const_int(static_cast<std::int32_t>(ir::kWordSize),
                             expr.loc);
      scale.loc = expr.loc;
      Reg offset = emit(scale).dst;
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
  bin.type = common;
  bin.dst = func_->new_reg();
  bin.src0 = lhs.reg;
  bin.src1 = rhs.reg;
  bin.loc = expr.loc;
  Type result = common;
  switch (expr.binary_op) {
    case BinaryOp::kAdd: bin.bin_op = BinOp::kAdd; break;
    case BinaryOp::kSub: bin.bin_op = BinOp::kSub; break;
    case BinaryOp::kMul: bin.bin_op = BinOp::kMul; break;
    case BinaryOp::kDiv: bin.bin_op = BinOp::kDiv; break;
    case BinaryOp::kRem: bin.bin_op = BinOp::kRem; break;
    case BinaryOp::kAnd: bin.bin_op = BinOp::kAnd; break;
    case BinaryOp::kOr:  bin.bin_op = BinOp::kOr; break;
    case BinaryOp::kXor: bin.bin_op = BinOp::kXor; break;
    case BinaryOp::kShl: bin.bin_op = BinOp::kShl; break;
    case BinaryOp::kShr: bin.bin_op = BinOp::kShr; break;
    case BinaryOp::kEq:  bin.bin_op = BinOp::kCmpEq; result = Type::kInt; break;
    case BinaryOp::kNe:  bin.bin_op = BinOp::kCmpNe; result = Type::kInt; break;
    case BinaryOp::kLt:  bin.bin_op = BinOp::kCmpLt; result = Type::kInt; break;
    case BinaryOp::kLe:  bin.bin_op = BinOp::kCmpLe; result = Type::kInt; break;
    case BinaryOp::kGt:  bin.bin_op = BinOp::kCmpGt; result = Type::kInt; break;
    case BinaryOp::kGe:  bin.bin_op = BinOp::kCmpGe; result = Type::kInt; break;
    case BinaryOp::kLogicalAnd:
    case BinaryOp::kLogicalOr:
      break; // handled above
  }
  return {emit(bin).dst, result};
}

RV IrGen::gen_call(const Expr& expr) {
  const Builtin* builtin = nullptr;
  const FuncSig* sig = nullptr;
  auto builtin_it = builtins().find(expr.name);
  if (builtin_it != builtins().end()) {
    builtin = &builtin_it->second;
  } else {
    auto sig_it = signatures_.find(expr.name);
    if (sig_it == signatures_.end()) {
      error(expr.loc, "call to undeclared function '" + expr.name + "'");
      return {const_int(0, expr.loc), Type::kInt};
    }
    sig = &sig_it->second;
  }

  const std::vector<Type>& param_types =
      builtin != nullptr ? builtin->params : sig->params;
  const Type return_type =
      builtin != nullptr ? builtin->return_type : sig->return_type;

  if (expr.args.size() != param_types.size()) {
    error(expr.loc, "wrong number of arguments to '" + expr.name + "'");
  }

  Instr call;
  call.op = Opcode::kCall;
  call.callee = expr.name;
  call.type = return_type;
  call.loc = expr.loc;
  call.args.reserve(expr.args.size());
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    RV arg = gen_expr(*expr.args[i]);
    if (i < param_types.size()) {
      const Type want = param_types[i];
      if (ir::is_pointer(want) && ir::is_pointer(arg.type)) {
        // any pointer flavour is accepted (free(float*) etc.)
      } else if (ir::is_pointer(want) != ir::is_pointer(arg.type)) {
        error(expr.args[i]->loc,
              "argument " + std::to_string(i + 1) + " of '" + expr.name +
                  "' has the wrong type");
      } else {
        arg = convert(arg, want, expr.args[i]->loc);
      }
    }
    call.args.push_back(arg.reg);
  }
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
        error(expr.loc, "use of undeclared identifier '" + expr.name + "'");
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

bool is_builtin(const std::string& name) {
  return builtins().count(name) != 0;
}

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
