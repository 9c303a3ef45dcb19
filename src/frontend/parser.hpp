#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "frontend/ast.hpp"
#include "frontend/token.hpp"

namespace cash::frontend {

// Recursive-descent parser for MiniC (see docs/MINIC.md for the grammar).
// Error recovery is statement-level: on a parse error the parser skips to
// the next ';' or '}' and continues, so one mistake yields one diagnostic.
//
// Nesting is capped at kMaxNestingDepth levels: statements, expressions,
// prefix operators and each link of a binary-operator or postfix chain
// count one level each. Past the cap the parser reports one error and
// stops, so no input can exhaust the stack here or in the passes that
// walk the tree.
class Parser {
 public:
  static constexpr int kMaxNestingDepth = 512;

  Parser(std::vector<Token> tokens, DiagnosticSink& diagnostics);

  TranslationUnit parse();

 private:
  class Nesting;

  const Token& peek(int ahead = 0) const noexcept;
  const Token& advance() noexcept;
  bool check(TokenKind kind) const noexcept { return peek().kind == kind; }
  bool match(TokenKind kind) noexcept;
  const Token* expect(TokenKind kind, const char* context);
  void synchronize(bool top_level = false) noexcept;
  void nest(Nesting& nesting);

  bool at_type_keyword() const noexcept;
  Type parse_type();

  void parse_top_level(TranslationUnit& unit);
  FunctionDecl* parse_function(Type return_type, std::string_view name,
                               SourceLoc loc);
  Stmt* parse_stmt();
  Stmt* parse_block();
  Stmt* parse_var_decl();
  Stmt* parse_if();
  Stmt* parse_while();
  Stmt* parse_for();

  Expr* parse_expr();       // assignment level
  Expr* parse_binary(int min_precedence);
  Expr* parse_unary();
  Expr* parse_postfix();
  Expr* parse_primary();

  template <class T>
  T* make() {
    return new (arena_->allocate(sizeof(T), alignof(T))) T{};
  }
  // Moves the entries of `pending` from `mark` on into the arena.
  template <class T>
  std::span<const T> take(std::vector<T>& pending, std::size_t mark);

  std::vector<Token> tokens_;
  DiagnosticSink* diagnostics_;
  std::pmr::memory_resource* arena_{nullptr}; // the unit being parsed
  // Per-thread stacks, reused across parses: the statements of the open
  // blocks and the arguments of the open calls (innermost last), and the
  // parameters of the function being parsed.
  std::vector<Stmt*>& stmts_;
  std::vector<Expr*>& exprs_;
  std::vector<ParamDecl>& params_;
  std::size_t pos_{0};
  int depth_{0};
};

} // namespace cash::frontend
