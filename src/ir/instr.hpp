#pragma once

#include <array>
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

// The IR opcode set, one row per opcode: X(name, text, micro-op, bytes,
// flags, operands). The Opcode enum, to_string(Opcode) and op_info() are
// expanded from this list, and the one instruction check (ir/verifier.hpp)
// reads it, so a row is the whole shape of an opcode.
//
//   text      the opcode's name in the printed IR
//   micro-op  the vm::UOp the decoder emits for it; ir/ ignores it. The
//             call lowering replaces kCall's by the callee's kind
//   bytes     average encoded size of the x86 code it lowers to
//             (passes/code_size.cpp); a call adds 2 per argument
//   flags     p pure: no effect but its result, so an unused one may be
//             deleted and a repeated one reused; t terminator; m memory
//             access through an address register; w moves a pointer word
//             (a fat pointer copies its shadow too)
//   operands  one character each for dst, src0, src1, slot, symbol,
//             target0, target1, seg and call: R required, o optional
//             (checked when set), - unused (no pass sets it, no engine
//             reads it). slot: a an array's. symbol: s a global scalar, g
//             any global. seg: r required when the access is `rebased`
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
//                  arguments (Function::calls); a builtin's arity and
//                  result come from CASH_IR_BUILTIN_LIST
//   kRet           return src0?
//   kJump          goto target0
//   kBranch        if src0 != 0 goto target0 else target1
//
// Instrumentation, inserted by the lowering passes:
//
//   kSegLoad       load segment register `seg` with the segment of the
//                  array src0 points into (its shadow info); 4 cycles
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
#define CASH_IR_OPCODE_LIST(X)                                              \
  X(kConstInt,         "const.i",           kConstInt,    5, "p",  "R--------") \
  X(kConstFloat,       "const.f",           kConstFloat,  5, "p",  "R--------") \
  X(kMove,             "move",              kMove,        2, "pw", "RR-------") \
  X(kBin,              "bin",               kBin,         3, "p",  "RRR------") \
  X(kUn,               "un",                kUn,          3, "p",  "RR-------") \
  X(kLoad,             "load",              kLoad,        4, "m",  "RR-----r-") \
  X(kStore,            "store",             kStore,       4, "m",  "-RR----r-") \
  X(kLoadLocal,        "load.local",        kLoadLocal,   3, "w",  "R--R-----") \
  X(kStoreLocal,       "store.local",       kStoreLocal,  3, "w",  "-R-R-----") \
  X(kLoadGlobal,       "load.global",       kLoadGlobal,  6, "w",  "R---s----") \
  X(kStoreGlobal,      "store.global",      kStoreGlobal, 6, "w",  "-R--s----") \
  X(kAddrLocal,        "addr.local",        kAddrLocal,   3, "p",  "R--a-----") \
  X(kAddrGlobal,       "addr.global",       kAddrGlobal,  5, "p",  "R---g----") \
  X(kPtrAdd,           "ptradd",            kPtrAdd,      3, "p",  "RRR------") \
  X(kCall,             "call",              kCallUser,    5, "w",  "o-------R") \
  X(kRet,              "ret",               kRet,         3, "t",  "-o-------") \
  X(kJump,             "jump",              kJump,        2, "t",  "-----R---") \
  X(kBranch,           "branch",            kBranch,      4, "t",  "-R---RR--") \
  X(kSegLoad,          "segload",           kSegLoad,     9, "",   "-R-----R-") \
  X(kBoundCheckSw,     "boundcheck.sw",     kBoundSw,    18, "",   "-Ro------") \
  X(kBoundCheckBnd,    "boundcheck.bnd",    kBoundBnd,    8, "",   "-Ro------") \
  X(kBoundCheckShadow, "boundcheck.shadow", kBoundShadow, 6, "",   "-Ro------")

enum class Opcode : std::uint8_t {
#define CASH_IR_OPCODE_ENUM(name, ...) name,
  CASH_IR_OPCODE_LIST(CASH_IR_OPCODE_ENUM)
#undef CASH_IR_OPCODE_ENUM
};

// How an opcode uses one operand field: an operands character of
// CASH_IR_OPCODE_LIST.
enum class Use : char {
  kUnused = '-',
  kOptional = 'o',
  kRequired = 'R',
  kArraySlot = 'a',    // slot: an array's
  kScalarGlobal = 's', // symbol: a global scalar
  kAnyGlobal = 'g',    // symbol: any global
  kWhenRebased = 'r',  // seg: required when `rebased` is set
};

// Bits of OpInfo::flags, one per flags character: p, t, m and w.
enum OpFlag : std::uint8_t {
  kPure = 1,
  kTerminator = 2,
  kMemoryAccess = 4,
  kMovesPointer = 8,
};

// One row of CASH_IR_OPCODE_LIST.
struct OpInfo {
  const char* text;
  std::uint8_t bytes;
  std::uint8_t flags; // OpFlag bits
  Use dst, src0, src1, slot, symbol, target0, target1, seg, call;
};

// A row's OpInfo. A character its column does not allow fails to compile.
constexpr OpInfo make_op_info(const char* text, std::uint8_t bytes,
                              std::string_view flags,
                              const char (&operands)[10]) {
  std::uint8_t bits = 0;
  for (const char flag : flags) {
    const std::size_t k = std::string_view("ptmw").find(flag);
    bits |= k != std::string_view::npos ? 1 << k
                                        : throw "unknown opcode flag";
  }
  const auto use = [&](int k, std::string_view allowed) {
    return allowed.find(operands[k]) != std::string_view::npos
               ? static_cast<Use>(operands[k])
               : throw "operand character not allowed in its column";
  };
  return {text,          bytes,         bits,          use(0, "-oR"),
          use(1, "-oR"), use(2, "-oR"), use(3, "-Ra"), use(4, "-sg"),
          use(5, "-R"),  use(6, "-R"),  use(7, "-Rr"), use(8, "-R")};
}

inline constexpr OpInfo kOpInfo[] = {
#define CASH_IR_OPCODE_INFO(name, text, uop, bytes, flags, operands) \
  make_op_info(text, bytes, flags, operands),
    CASH_IR_OPCODE_LIST(CASH_IR_OPCODE_INFO)
#undef CASH_IR_OPCODE_INFO
};

constexpr const OpInfo& op_info(Opcode op) noexcept {
  return kOpInfo[static_cast<std::size_t>(op)];
}

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
};

enum class UnOp : std::uint8_t {
  kNeg, kLogicalNot, kBitNot, kIntToFloat, kFloatToInt,
};

// The builtins every MiniC program can call undeclared, which the
// simulator implements directly: X(name, spelling, cycles, return type,
// parameter types...), types named without `Type::`. `cycles` is what a
// call charges in both engines (vm::builtin_cycles; ir/ ignores it);
// malloc and free account for themselves. The Builtin enum, builtin_of()
// and signature() are expanded from this list.
#define CASH_IR_BUILTIN_LIST(X)                                              \
  X(kMalloc, "malloc", 0, kIntPtr, kInt)                                     \
  X(kFree, "free", 0, kVoid, kIntPtr)                                        \
  X(kSqrt, "sqrt", costs::kMathBuiltin, kFloat, kFloat)                      \
  X(kFabs, "fabs", costs::kAluOp, kFloat, kFloat)                            \
  X(kSin, "sin", costs::kMathBuiltin, kFloat, kFloat)                        \
  X(kCos, "cos", costs::kMathBuiltin, kFloat, kFloat)                        \
  X(kExp, "exp", costs::kMathBuiltin, kFloat, kFloat)                        \
  X(kLog, "log", costs::kMathBuiltin, kFloat, kFloat)                        \
  X(kFloor, "floor", costs::kAluOp, kFloat, kFloat)                          \
  X(kPow, "pow", costs::kMathBuiltin, kFloat, kFloat, kFloat)                \
  X(kAbs, "abs", costs::kAluOp, kInt, kInt)                                  \
  X(kPrintInt, "print_int", 10, kVoid, kInt)                                 \
  X(kPrintFloat, "print_float", 10, kVoid, kFloat)                           \
  X(kRand, "rand", 5, kInt)                                                  \
  X(kSrand, "srand", 2, kVoid, kInt)

enum class Builtin : std::uint8_t {
  kNone, // a user function, or no callee at all
#define CASH_IR_BUILTIN_ENUM(name, ...) name,
  CASH_IR_BUILTIN_LIST(CASH_IR_BUILTIN_ENUM)
#undef CASH_IR_BUILTIN_ENUM
};

// The builtin spelled `name`, or kNone.
Builtin builtin_of(std::string_view name) noexcept;

// A builtin's result and parameter types, from CASH_IR_BUILTIN_LIST.
struct BuiltinSignature {
  Type result{Type::kVoid};
  std::array<Type, 2> params{};
  std::size_t arity{0};
};

// The signature of `builtin`, which must not be kNone.
const BuiltinSignature& signature(Builtin builtin) noexcept;

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

// Segment registers an instruction can name (x86seg::kNumSegRegs).
inline constexpr std::size_t kSegRegCount = 6;

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

  bool is_pure() const noexcept { return has(kPure); }
  bool is_terminator() const noexcept { return has(kTerminator); }
  bool is_memory_access() const noexcept { return has(kMemoryAccess); }
  bool moves_pointer() const noexcept { return has(kMovesPointer); }
  bool has(OpFlag flag) const noexcept {
    return (op_info(op).flags & flag) != 0;
  }
};

static_assert(sizeof(Instr) <= 64 && std::is_trivially_copyable_v<Instr>,
              "ir::Instr must stay a small plain aggregate");

const char* to_string(Opcode op) noexcept;
const char* to_string(BinOp op) noexcept;
const char* to_string(UnOp op) noexcept;

} // namespace cash::ir
