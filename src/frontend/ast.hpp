#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/diagnostics.hpp"
#include "ir/type.hpp"

namespace cash::frontend {

using ir::Type;

// The tree of one translation unit lives in its arena: nodes link by plain
// pointers, child lists are spans into the arena, and names view the
// source. So the source must outlive the tree, and every node is trivially
// destructible: the arena frees them all at once, in a few large blocks.

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kIntLit,
  kFloatLit,
  kVarRef,    // ident
  kIndex,     // base[index]   (base is an expression: array var or pointer)
  kDeref,     // *ptr  (sugar for ptr[0])
  kUnary,     // -x !x ~x
  kBinary,    // x OP y
  kAssign,    // lvalue OP= value (op == kNone for plain '=')
  kIncDec,    // ++x / x++ / --x / x--
  kCall,      // f(args)
};

enum class UnaryOp : std::uint8_t { kNeg, kNot, kBitNot };

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLogicalAnd, kLogicalOr,
};

enum class AssignOp : std::uint8_t { kNone, kAdd, kSub, kMul, kDiv, kRem };

struct Expr {
  ExprKind kind{ExprKind::kIntLit};
  SourceLoc loc;

  std::int32_t int_value{0};
  float float_value{0.0F};
  std::string_view name; // kVarRef / kCall

  UnaryOp unary_op{UnaryOp::kNeg};
  BinaryOp binary_op{BinaryOp::kAdd};
  AssignOp assign_op{AssignOp::kNone};
  bool is_prefix{false}; // kIncDec
  bool is_increment{true};

  Expr* lhs{nullptr};  // also: base of kIndex, operand of unary, lvalue
                       // of kAssign/kIncDec, pointee of kDeref
  Expr* rhs{nullptr};  // also: index of kIndex, value of kAssign
  std::span<Expr* const> args; // kCall
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kExpr,
  kVarDecl,
  kBlock,
  kIf,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
};

struct Stmt {
  StmtKind kind{StmtKind::kExpr};
  SourceLoc loc;

  Expr* expr{nullptr}; // kExpr / kReturn value / decl initialiser

  // kVarDecl
  Type decl_type{Type::kInt};
  std::string_view decl_name;
  bool decl_is_array{false};
  std::uint32_t decl_elem_count{0};

  // kBlock
  std::span<Stmt* const> body;

  // kIf / kWhile / kFor
  Expr* cond{nullptr};
  Stmt* then_branch{nullptr}; // also: loop body
  Stmt* else_branch{nullptr};
  Expr* for_init{nullptr}; // expressions only; declare loop vars first
  Expr* for_step{nullptr};
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct ParamDecl {
  Type type{Type::kInt};
  std::string_view name;
  SourceLoc loc;
};

struct FunctionDecl {
  Type return_type{Type::kVoid};
  std::string_view name;
  std::span<const ParamDecl> params;
  Stmt* body{nullptr}; // kBlock
  SourceLoc loc;
};

struct GlobalDecl {
  Type type{Type::kInt};
  std::string_view name;
  bool is_array{false};
  std::uint32_t elem_count{0};
  SourceLoc loc;
};

static_assert(std::is_trivially_destructible_v<Expr> &&
              std::is_trivially_destructible_v<Stmt> &&
              std::is_trivially_destructible_v<FunctionDecl>);

struct TranslationUnit {
  std::vector<GlobalDecl> globals;
  std::vector<FunctionDecl*> functions;
  // Owns every node above; allocated so that the unit can move. The
  // workloads' trees take 13 to 45 KB.
  std::unique_ptr<std::pmr::monotonic_buffer_resource> arena =
      std::make_unique<std::pmr::monotonic_buffer_resource>(32 * 1024);
};

} // namespace cash::frontend
