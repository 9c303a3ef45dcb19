#include "ir/instr.hpp"

namespace cash::ir {

const char* to_string(Type type) noexcept {
  switch (type) {
    case Type::kVoid:     return "void";
    case Type::kInt:      return "int";
    case Type::kFloat:    return "float";
    case Type::kIntPtr:   return "int*";
    case Type::kFloatPtr: return "float*";
  }
  return "?";
}

const char* to_string(Opcode op) noexcept {
  switch (op) {
#define CASH_IR_OPCODE_TEXT(name, text) \
  case Opcode::name:                    \
    return text;
    CASH_IR_OPCODE_LIST(CASH_IR_OPCODE_TEXT)
#undef CASH_IR_OPCODE_TEXT
  }
  return "?";
}

const char* to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd:   return "add";
    case BinOp::kSub:   return "sub";
    case BinOp::kMul:   return "mul";
    case BinOp::kDiv:   return "div";
    case BinOp::kRem:   return "rem";
    case BinOp::kAnd:   return "and";
    case BinOp::kOr:    return "or";
    case BinOp::kXor:   return "xor";
    case BinOp::kShl:   return "shl";
    case BinOp::kShr:   return "shr";
    case BinOp::kCmpEq: return "cmpeq";
    case BinOp::kCmpNe: return "cmpne";
    case BinOp::kCmpLt: return "cmplt";
    case BinOp::kCmpLe: return "cmple";
    case BinOp::kCmpGt: return "cmpgt";
    case BinOp::kCmpGe: return "cmpge";
  }
  return "?";
}

const char* to_string(UnOp op) noexcept {
  switch (op) {
    case UnOp::kNeg:        return "neg";
    case UnOp::kLogicalNot: return "lnot";
    case UnOp::kBitNot:     return "bnot";
    case UnOp::kIntToFloat: return "i2f";
    case UnOp::kFloatToInt: return "f2i";
  }
  return "?";
}

} // namespace cash::ir
