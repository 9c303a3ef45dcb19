#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/diagnostics.hpp"
#include "ir/type.hpp"

namespace cash::ir {

using Reg = std::int32_t;              // virtual register id
inline constexpr Reg kNoReg = -1;
using BlockId = std::int32_t;
inline constexpr BlockId kNoBlock = -1;
using SymbolId = std::int32_t;         // array/pointer symbol (globals and
                                       // locals share one per-module space)
inline constexpr SymbolId kNoSymbol = -1;
using LoopId = std::int32_t;
inline constexpr LoopId kNoLoop = -1;

// The IR opcode set, one row per opcode: X(name, text), where `text` is
// the opcode's name in the printed IR (to_string). The Opcode enum and
// to_string(Opcode) are both expanded from this list.
//
//   kConstInt      dst <- int_imm
//   kConstFloat    dst <- float_imm
//   kMove          dst <- src0 (copies pointer shadow info too)
//   kBin           dst <- src0 BINOP src1
//   kUn            dst <- UNOP src0
//   kLoad          dst <- mem[src0]; src0 holds a linear address (or a
//                  segment-relative offset once `rebased` is set)
//   kStore         mem[src0] <- src1
//   kLoadLocal     dst <- local scalar slot `slot`
//   kStoreLocal    local scalar slot `slot` <- src0
//   kLoadGlobal    dst <- global scalar `symbol`
//   kStoreGlobal   global scalar `symbol` <- src0
//   kAddrLocal     dst <- address of local array `slot` (attaches shadow
//                  info)
//   kAddrGlobal    dst <- address of global array `symbol` (attaches info)
//   kPtrAdd        dst <- src0 + src1 bytes (propagates shadow info)
//   kCall          dst? <- call the callee of call site `call` with its
//                  arguments (Function::calls)
//   kRet           return src0?
//   kJump          goto target0
//   kBranch        if src0 != 0 goto target0 else target1
//
// Instrumentation, inserted by the lowering passes:
//
//   kSegLoad       load segment register `seg` with the segment of array
//                  `symbol` (shadow info reachable through src0); 4 cycles
//   kBoundCheckSw  software bound check of address src0 against the bounds
//                  of the object src0's shadow points to; 6 cycles. With
//                  src1 set, the interval form: checks [src0, src1] and
//                  only applies when src0 <= src1 (an empty range passes),
//                  so a hoisted check for a zero-trip loop can never fault;
//                  costs kIntervalCheckExtra more
//   kBoundCheckBnd the same check via the x86 `bound` instruction; 7 cycles
//                  (interval form as above)
//   kBoundCheckShadow
//                  enqueue the address for a shadow processor that runs the
//                  derived checking program concurrently (Patil & Fischer);
//                  1 cycle on the main CPU (the interval form enqueues src1
//                  too: 2 cycles)
#define CASH_IR_OPCODE_LIST(X)                                               \
  X(kConstInt, "const.i")                                                    \
  X(kConstFloat, "const.f")                                                  \
  X(kMove, "move")                                                           \
  X(kBin, "bin")                                                             \
  X(kUn, "un")                                                               \
  X(kLoad, "load")                                                           \
  X(kStore, "store")                                                         \
  X(kLoadLocal, "load.local")                                                \
  X(kStoreLocal, "store.local")                                              \
  X(kLoadGlobal, "load.global")                                              \
  X(kStoreGlobal, "store.global")                                            \
  X(kAddrLocal, "addr.local")                                                \
  X(kAddrGlobal, "addr.global")                                              \
  X(kPtrAdd, "ptradd")                                                       \
  X(kCall, "call")                                                           \
  X(kRet, "ret")                                                             \
  X(kJump, "jump")                                                           \
  X(kBranch, "branch")                                                       \
  X(kSegLoad, "segload")                                                     \
  X(kBoundCheckSw, "boundcheck.sw")                                          \
  X(kBoundCheckBnd, "boundcheck.bnd")                                        \
  X(kBoundCheckShadow, "boundcheck.shadow")

enum class Opcode : std::uint8_t {
#define CASH_IR_OPCODE_ENUM(name, text) name,
  CASH_IR_OPCODE_LIST(CASH_IR_OPCODE_ENUM)
#undef CASH_IR_OPCODE_ENUM
};

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
};

enum class UnOp : std::uint8_t {
  kNeg, kLogicalNot, kBitNot, kIntToFloat, kFloatToInt,
};

// The builtins every MiniC program can call undeclared, which the
// simulator implements directly: X(name, spelling, return type, parameter
// types...), types named without `Type::`. The Builtin enum, builtin_of()
// and the front end's signature table are expanded from this list.
#define CASH_IR_BUILTIN_LIST(X)                                              \
  X(kMalloc, "malloc", kIntPtr, kInt)                                        \
  X(kFree, "free", kVoid, kIntPtr)                                           \
  X(kSqrt, "sqrt", kFloat, kFloat)                                           \
  X(kFabs, "fabs", kFloat, kFloat)                                           \
  X(kSin, "sin", kFloat, kFloat)                                             \
  X(kCos, "cos", kFloat, kFloat)                                             \
  X(kExp, "exp", kFloat, kFloat)                                             \
  X(kLog, "log", kFloat, kFloat)                                             \
  X(kFloor, "floor", kFloat, kFloat)                                         \
  X(kPow, "pow", kFloat, kFloat, kFloat)                                     \
  X(kAbs, "abs", kInt, kInt)                                                 \
  X(kPrintInt, "print_int", kVoid, kInt)                                     \
  X(kPrintFloat, "print_float", kVoid, kFloat)                               \
  X(kRand, "rand", kInt)                                                     \
  X(kSrand, "srand", kVoid, kInt)

enum class Builtin : std::uint8_t {
  kNone, // a user function, or no callee at all
#define CASH_IR_BUILTIN_ENUM(name, ...) name,
  CASH_IR_BUILTIN_LIST(CASH_IR_BUILTIN_ENUM)
#undef CASH_IR_BUILTIN_ENUM
};

// The builtin spelled `name`, or kNone.
Builtin builtin_of(std::string_view name) noexcept;

// One call's callee and arguments. Only kCall needs them, so they live in
// the function's call-site table and the instruction keeps the index. The
// front end resolves the target once: to a builtin, or to the callee's
// index in Module::functions.
struct CallSite {
  std::string callee;          // source spelling: printer, error messages
  std::vector<Reg> args;
  Builtin builtin{Builtin::kNone};
  std::int32_t function{-1};   // Module::functions index when builtin is
                               // kNone; -1 when no function has the name
};

// One three-address instruction. A deliberately plain, trivially copyable
// aggregate of 64 bytes: the passes scan, copy and compact millions of
// these, so every field is inline and no field owns memory.
struct Instr {
  Opcode op{Opcode::kMove};
  Type type{Type::kInt};     // result / operand interpretation
  BinOp bin_op{BinOp::kAdd};
  UnOp un_op{UnOp::kNeg};
  std::int8_t seg{-1};       // segment register index (x86seg::SegReg)
                             // once Cash-lowered; -1 = flat DS access
  bool rebased{false};       // address operand is segment-relative
  bool synthetic{false};     // inserted by a lowering pass (check set-up);
                             // costed with the check, not as program work
  bool check_elided{false};  // memory access proven in-bounds by the
                             // elision pass: lowering emits no check (and,
                             // for Cash, no segment set-up) for it

  Reg dst{kNoReg};
  Reg src0{kNoReg};
  Reg src1{kNoReg};

  std::int32_t int_imm{0};
  float float_imm{0.0F};

  std::int32_t slot{-1};          // kLoadLocal/kStoreLocal/kAddrLocal
  SymbolId symbol{kNoSymbol};     // global symbol or array provenance
  std::int32_t call{-1};          // kCall: index in Function::calls

  BlockId target0{kNoBlock};
  BlockId target1{kNoBlock};

  // --- bound-checking metadata ---
  SymbolId array_ref{kNoSymbol};  // which array variable this memory access
                                  // syntactically derives from
  LoopId loop{kNoLoop};           // innermost syntactic loop containing it

  SourceLoc loc;

  bool is_terminator() const noexcept {
    return op == Opcode::kJump || op == Opcode::kBranch || op == Opcode::kRet;
  }
  bool is_memory_access() const noexcept {
    return op == Opcode::kLoad || op == Opcode::kStore;
  }
};

static_assert(sizeof(Instr) <= 64 && std::is_trivially_copyable_v<Instr>,
              "ir::Instr must stay a small plain aggregate");

const char* to_string(Opcode op) noexcept;
const char* to_string(BinOp op) noexcept;
const char* to_string(UnOp op) noexcept;

} // namespace cash::ir
