#include "frontend/parser.hpp"

#include <memory>
#include <string>

namespace cash::frontend {

namespace {

// A binary operator token's precedence (C-style: higher binds tighter)
// and operator. Any other token has precedence -1.
struct BinaryInfo {
  int precedence;
  BinaryOp op;
};

BinaryInfo binary_info(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return {1, BinaryOp::kLogicalOr};
    case TokenKind::kAmpAmp:   return {2, BinaryOp::kLogicalAnd};
    case TokenKind::kPipe:     return {3, BinaryOp::kOr};
    case TokenKind::kCaret:    return {4, BinaryOp::kXor};
    case TokenKind::kAmp:      return {5, BinaryOp::kAnd};
    case TokenKind::kEq:       return {6, BinaryOp::kEq};
    case TokenKind::kNe:       return {6, BinaryOp::kNe};
    case TokenKind::kLt:       return {7, BinaryOp::kLt};
    case TokenKind::kLe:       return {7, BinaryOp::kLe};
    case TokenKind::kGt:       return {7, BinaryOp::kGt};
    case TokenKind::kGe:       return {7, BinaryOp::kGe};
    case TokenKind::kShl:      return {8, BinaryOp::kShl};
    case TokenKind::kShr:      return {8, BinaryOp::kShr};
    case TokenKind::kPlus:     return {9, BinaryOp::kAdd};
    case TokenKind::kMinus:    return {9, BinaryOp::kSub};
    case TokenKind::kStar:     return {10, BinaryOp::kMul};
    case TokenKind::kSlash:    return {10, BinaryOp::kDiv};
    case TokenKind::kPercent:  return {10, BinaryOp::kRem};
    default:                   return {-1, BinaryOp::kAdd};
  }
}

bool is_prefix_operator(TokenKind kind) {
  return kind == TokenKind::kMinus || kind == TokenKind::kBang ||
         kind == TokenKind::kTilde || kind == TokenKind::kStar ||
         kind == TokenKind::kPlusPlus || kind == TokenKind::kMinusMinus;
}

// Thrown once the nesting cap is hit; parse() catches it.
struct TooDeep {};

struct Scratch {
  std::vector<Stmt*> stmts;
  std::vector<Expr*> exprs;
  std::vector<ParamDecl> params;
};

Scratch& scratch() {
  thread_local Scratch stacks;
  return stacks;
}

} // namespace

// The levels one parse function has added to the nesting depth; they are
// released when it returns.
class Parser::Nesting {
 public:
  explicit Nesting(int& depth) : depth_(depth) {}
  ~Nesting() { depth_ -= levels_; }
  Nesting(const Nesting&) = delete;
  Nesting& operator=(const Nesting&) = delete;

  int push() noexcept {
    ++levels_;
    return ++depth_;
  }

 private:
  int& depth_;
  int levels_{0};
};

Parser::Parser(std::vector<Token> tokens, DiagnosticSink& diagnostics)
    : tokens_(std::move(tokens)),
      diagnostics_(&diagnostics),
      stmts_(scratch().stmts),
      exprs_(scratch().exprs),
      params_(scratch().params) {}

template <class T>
std::span<const T> Parser::take(std::vector<T>& pending, std::size_t mark) {
  const std::size_t n = pending.size() - mark;
  T* items = n == 0 ? nullptr
                    : static_cast<T*>(arena_->allocate(n * sizeof(T),
                                                       alignof(T)));
  std::uninitialized_copy(pending.begin() + mark, pending.end(), items);
  pending.resize(mark);
  return {items, n};
}

// Enters one more nesting level. Past the cap, reports it and abandons
// the parse: the exception unwinds every open construct.
void Parser::nest(Nesting& nesting) {
  if (nesting.push() > kMaxNestingDepth) {
    diagnostics_->error(peek().loc,
                        "nesting deeper than " +
                            std::to_string(kMaxNestingDepth) + " levels");
    throw TooDeep{};
  }
}

const Token& Parser::peek(int ahead) const noexcept {
  const std::size_t at = pos_ + static_cast<std::size_t>(ahead);
  return at < tokens_.size() ? tokens_[at] : tokens_.back();
}

const Token& Parser::advance() noexcept {
  const Token& t = peek();
  if (pos_ + 1 < tokens_.size()) {
    ++pos_;
  }
  return t;
}

bool Parser::match(TokenKind kind) noexcept {
  if (!check(kind)) {
    return false;
  }
  advance();
  return true;
}

const Token* Parser::expect(TokenKind kind, const char* context) {
  if (check(kind)) {
    return &advance();
  }
  diagnostics_->error(peek().loc, std::string("expected ") + to_string(kind) +
                                      " " + context + ", found " +
                                      to_string(peek().kind));
  return nullptr;
}

// Skips to the next statement boundary: past a ';', or up to the '}' that
// closes the enclosing block. At top level no block is open, so a stray
// '}' is consumed; left in place, parse() would stop on it forever.
void Parser::synchronize(bool top_level) noexcept {
  while (!check(TokenKind::kEof)) {
    if (match(TokenKind::kSemicolon)) {
      return;
    }
    if (check(TokenKind::kRBrace)) {
      if (top_level) {
        advance();
      }
      return;
    }
    advance();
  }
}

bool Parser::at_type_keyword() const noexcept {
  return check(TokenKind::kKwInt) || check(TokenKind::kKwFloat) ||
         check(TokenKind::kKwVoid);
}

Type Parser::parse_type() {
  Type base = Type::kVoid;
  if (match(TokenKind::kKwInt)) {
    base = Type::kInt;
  } else if (match(TokenKind::kKwFloat)) {
    base = Type::kFloat;
  } else if (match(TokenKind::kKwVoid)) {
    base = Type::kVoid;
  } else {
    diagnostics_->error(peek().loc, "expected type");
    advance();
  }
  if (match(TokenKind::kStar)) {
    if (base == Type::kVoid) {
      diagnostics_->error(peek().loc, "void* is not supported in MiniC");
    } else {
      base = ir::pointer_to(base);
    }
  }
  return base;
}

TranslationUnit Parser::parse() {
  TranslationUnit unit;
  arena_ = unit.arena.get();
  // A parse abandoned at the nesting cap leaves entries behind.
  stmts_.clear();
  exprs_.clear();
  try {
    while (!check(TokenKind::kEof)) {
      parse_top_level(unit);
    }
  } catch (const TooDeep&) {
    // Reported by nest(); the unit holds the declarations before it.
  }
  return unit;
}

void Parser::parse_top_level(TranslationUnit& unit) {
  const SourceLoc loc = peek().loc;
  if (!at_type_keyword()) {
    diagnostics_->error(loc, "expected declaration at top level");
    synchronize(true);
    return;
  }
  const Type type = parse_type();
  const Token* name = expect(TokenKind::kIdent, "in declaration");
  if (name == nullptr) {
    synchronize(true);
    return;
  }

  if (check(TokenKind::kLParen)) {
    FunctionDecl* function = parse_function(type, name->text, loc);
    if (function != nullptr) {
      unit.functions.push_back(function);
    }
    return;
  }

  GlobalDecl global;
  global.type = type;
  global.name = name->text;
  global.loc = loc;
  if (match(TokenKind::kLBracket)) {
    const Token* size = expect(TokenKind::kIntLit, "as array size");
    if (size != nullptr) {
      if (size->int_value <= 0) {
        diagnostics_->error(size->loc, "array size must be positive");
      } else {
        global.is_array = true;
        global.elem_count = static_cast<std::uint32_t>(size->int_value);
      }
    }
    expect(TokenKind::kRBracket, "after array size");
  }
  expect(TokenKind::kSemicolon, "after global declaration");
  if (global.type == Type::kVoid) {
    diagnostics_->error(loc, "global of type void");
    return;
  }
  unit.globals.push_back(std::move(global));
}

FunctionDecl* Parser::parse_function(Type return_type, std::string_view name,
                                     SourceLoc loc) {
  auto* function = make<FunctionDecl>();
  function->return_type = return_type;
  function->name = name;
  function->loc = loc;
  params_.clear();

  expect(TokenKind::kLParen, "after function name");
  if (!check(TokenKind::kRParen)) {
    do {
      ParamDecl param;
      param.loc = peek().loc;
      param.type = parse_type();
      if (param.type == Type::kVoid) {
        // `void` alone as the parameter list, C style.
        if (params_.empty() && check(TokenKind::kRParen)) {
          break;
        }
        diagnostics_->error(param.loc, "parameter of type void");
      }
      const Token* pname = expect(TokenKind::kIdent, "as parameter name");
      if (pname != nullptr) {
        param.name = pname->text;
      }
      params_.push_back(param);
    } while (match(TokenKind::kComma));
  }
  function->params = take(params_, 0);
  expect(TokenKind::kRParen, "after parameters");
  if (!check(TokenKind::kLBrace)) {
    diagnostics_->error(peek().loc,
                        "expected function body ('{'); "
                        "forward declarations are not needed in MiniC");
    synchronize(true);
    return nullptr;
  }
  function->body = parse_block();
  return function;
}

Stmt* Parser::parse_block() {
  auto* block = make<Stmt>();
  block->kind = StmtKind::kBlock;
  block->loc = peek().loc;
  expect(TokenKind::kLBrace, "to open block");
  const std::size_t mark = stmts_.size();
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    Stmt* stmt = parse_stmt();
    if (stmt != nullptr) {
      stmts_.push_back(stmt);
    }
  }
  block->body = take(stmts_, mark);
  expect(TokenKind::kRBrace, "to close block");
  return block;
}

Stmt* Parser::parse_stmt() {
  Nesting nesting(depth_);
  nest(nesting);
  if (at_type_keyword()) {
    return parse_var_decl();
  }
  switch (peek().kind) {
    case TokenKind::kLBrace:     return parse_block();
    case TokenKind::kKwIf:       return parse_if();
    case TokenKind::kKwWhile:    return parse_while();
    case TokenKind::kKwFor:      return parse_for();
    case TokenKind::kKwReturn: {
      auto* stmt = make<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->loc = advance().loc;
      if (!check(TokenKind::kSemicolon)) {
        stmt->expr = parse_expr();
      }
      expect(TokenKind::kSemicolon, "after return");
      return stmt;
    }
    case TokenKind::kKwBreak:
    case TokenKind::kKwContinue: {
      auto* stmt = make<Stmt>();
      const bool is_break = check(TokenKind::kKwBreak);
      stmt->kind = is_break ? StmtKind::kBreak : StmtKind::kContinue;
      stmt->loc = advance().loc;
      expect(TokenKind::kSemicolon,
             is_break ? "after break" : "after continue");
      return stmt;
    }
    default: {
      auto* stmt = make<Stmt>();
      stmt->kind = StmtKind::kExpr;
      stmt->loc = peek().loc;
      stmt->expr = parse_expr();
      if (expect(TokenKind::kSemicolon, "after expression") == nullptr) {
        synchronize();
      }
      return stmt;
    }
  }
}

Stmt* Parser::parse_var_decl() {
  auto* stmt = make<Stmt>();
  stmt->kind = StmtKind::kVarDecl;
  stmt->loc = peek().loc;
  stmt->decl_type = parse_type();
  if (stmt->decl_type == Type::kVoid) {
    diagnostics_->error(stmt->loc, "variable of type void");
  }
  const Token* name = expect(TokenKind::kIdent, "in variable declaration");
  if (name != nullptr) {
    stmt->decl_name = name->text;
  }
  if (match(TokenKind::kLBracket)) {
    const Token* size = expect(TokenKind::kIntLit, "as array size");
    if (size != nullptr) {
      if (size->int_value <= 0) {
        diagnostics_->error(size->loc, "array size must be positive");
      } else {
        stmt->decl_is_array = true;
        stmt->decl_elem_count = static_cast<std::uint32_t>(size->int_value);
      }
    }
    expect(TokenKind::kRBracket, "after array size");
    if (ir::is_pointer(stmt->decl_type)) {
      diagnostics_->error(stmt->loc, "arrays of pointers are not supported");
    }
  }
  if (match(TokenKind::kAssign)) {
    if (stmt->decl_is_array) {
      diagnostics_->error(peek().loc, "array initialisers are not supported");
    }
    stmt->expr = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after variable declaration");
  return stmt;
}

Stmt* Parser::parse_if() {
  auto* stmt = make<Stmt>();
  stmt->kind = StmtKind::kIf;
  stmt->loc = advance().loc; // 'if'
  expect(TokenKind::kLParen, "after 'if'");
  stmt->cond = parse_expr();
  expect(TokenKind::kRParen, "after condition");
  stmt->then_branch = parse_stmt();
  if (match(TokenKind::kKwElse)) {
    stmt->else_branch = parse_stmt();
  }
  return stmt;
}

Stmt* Parser::parse_while() {
  auto* stmt = make<Stmt>();
  stmt->kind = StmtKind::kWhile;
  stmt->loc = advance().loc; // 'while'
  expect(TokenKind::kLParen, "after 'while'");
  stmt->cond = parse_expr();
  expect(TokenKind::kRParen, "after condition");
  stmt->then_branch = parse_stmt();
  return stmt;
}

Stmt* Parser::parse_for() {
  auto* stmt = make<Stmt>();
  stmt->kind = StmtKind::kFor;
  stmt->loc = advance().loc; // 'for'
  expect(TokenKind::kLParen, "after 'for'");
  if (!check(TokenKind::kSemicolon)) {
    stmt->for_init = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after for-initialiser");
  if (!check(TokenKind::kSemicolon)) {
    stmt->cond = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after for-condition");
  if (!check(TokenKind::kRParen)) {
    stmt->for_step = parse_expr();
  }
  expect(TokenKind::kRParen, "after for-step");
  stmt->then_branch = parse_stmt();
  return stmt;
}

Expr* Parser::parse_expr() {
  Nesting nesting(depth_);
  nest(nesting);
  auto lhs = parse_binary(0);

  AssignOp op = AssignOp::kNone;
  bool is_assign = true;
  switch (peek().kind) {
    case TokenKind::kAssign:        op = AssignOp::kNone; break;
    case TokenKind::kPlusAssign:    op = AssignOp::kAdd; break;
    case TokenKind::kMinusAssign:   op = AssignOp::kSub; break;
    case TokenKind::kStarAssign:    op = AssignOp::kMul; break;
    case TokenKind::kSlashAssign:   op = AssignOp::kDiv; break;
    case TokenKind::kPercentAssign: op = AssignOp::kRem; break;
    default:                        is_assign = false; break;
  }
  if (!is_assign) {
    return lhs;
  }
  const SourceLoc loc = advance().loc;
  auto* assign = make<Expr>();
  assign->kind = ExprKind::kAssign;
  assign->loc = loc;
  assign->assign_op = op;
  assign->lhs = lhs;
  assign->rhs = parse_expr(); // right-associative
  return assign;
}

Expr* Parser::parse_binary(int min_precedence) {
  Nesting nesting(depth_); // each link of a chain nests the tree deeper
  auto lhs = parse_unary();
  while (true) {
    const BinaryInfo info = binary_info(peek().kind);
    if (info.precedence < 0 || info.precedence < min_precedence) {
      return lhs;
    }
    nest(nesting);
    const Token& op_token = advance();
    auto rhs = parse_binary(info.precedence + 1);
    auto* node = make<Expr>();
    node->kind = ExprKind::kBinary;
    node->loc = op_token.loc;
    node->binary_op = info.op;
    node->lhs = lhs;
    node->rhs = rhs;
    lhs = node;
  }
}

Expr* Parser::parse_unary() {
  const SourceLoc loc = peek().loc;
  const TokenKind kind = peek().kind;
  if (!is_prefix_operator(kind)) {
    return parse_postfix();
  }
  Nesting nesting(depth_);
  nest(nesting);
  advance();
  auto* node = make<Expr>();
  node->loc = loc;
  switch (kind) {
    case TokenKind::kMinus: node->unary_op = UnaryOp::kNeg; break;
    case TokenKind::kBang:  node->unary_op = UnaryOp::kNot; break;
    case TokenKind::kTilde: node->unary_op = UnaryOp::kBitNot; break;
    default: break;
  }
  node->kind = kind == TokenKind::kStar ? ExprKind::kDeref
               : kind == TokenKind::kPlusPlus || kind == TokenKind::kMinusMinus
                   ? ExprKind::kIncDec
                   : ExprKind::kUnary;
  if (node->kind == ExprKind::kIncDec) {
    node->is_prefix = true;
    node->is_increment = kind == TokenKind::kPlusPlus;
  }
  node->lhs = parse_unary();
  return node;
}

Expr* Parser::parse_postfix() {
  Nesting nesting(depth_);
  auto expr = parse_primary();
  while (true) {
    if (match(TokenKind::kLBracket)) {
      nest(nesting);
      auto* node = make<Expr>();
      node->kind = ExprKind::kIndex;
      node->loc = peek().loc;
      node->lhs = expr;
      node->rhs = parse_expr();
      expect(TokenKind::kRBracket, "after index");
      expr = node;
      continue;
    }
    if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
      nest(nesting);
      const bool increment = check(TokenKind::kPlusPlus);
      const SourceLoc loc = advance().loc;
      auto* node = make<Expr>();
      node->kind = ExprKind::kIncDec;
      node->loc = loc;
      node->is_prefix = false;
      node->is_increment = increment;
      node->lhs = expr;
      expr = node;
      continue;
    }
    return expr;
  }
}

Expr* Parser::parse_primary() {
  const Token& token = advance();
  if (token.kind == TokenKind::kLParen) {
    Expr* inner = parse_expr();
    expect(TokenKind::kRParen, "after parenthesised expression");
    return inner;
  }
  auto* node = make<Expr>();
  node->loc = token.loc;
  switch (token.kind) {
    case TokenKind::kIntLit:
      node->kind = ExprKind::kIntLit;
      node->int_value = token.int_value;
      break;
    case TokenKind::kFloatLit:
      node->kind = ExprKind::kFloatLit;
      node->float_value = token.float_value;
      break;
    case TokenKind::kIdent:
      node->name = token.text;
      node->kind = check(TokenKind::kLParen) ? ExprKind::kCall
                                              : ExprKind::kVarRef;
      if (match(TokenKind::kLParen)) {
        if (!check(TokenKind::kRParen)) {
          const std::size_t mark = exprs_.size();
          do {
            exprs_.push_back(parse_expr());
          } while (match(TokenKind::kComma));
          node->args = take(exprs_, mark);
        }
        expect(TokenKind::kRParen, "after call arguments");
      }
      break;
    default: // an int literal 0 stands in
      diagnostics_->error(token.loc, std::string("unexpected token ") +
                                         to_string(token.kind) +
                                         " in expression");
      break;
  }
  return node;
}

} // namespace cash::frontend
