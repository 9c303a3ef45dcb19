#include "ir/instr.hpp"

#include <iterator>

namespace cash::ir {

const char* to_string(Type type) noexcept {
  static constexpr const char* kNames[] = {"void", "int", "float", "int*",
                                           "float*"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(Type::kFloatPtr) + 1);
  const auto i = static_cast<std::size_t>(type);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* to_string(Opcode op) noexcept {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpInfo) ? kOpInfo[i].text : "?";
}

Builtin builtin_of(std::string_view name) noexcept {
#define CASH_IR_BUILTIN_MATCH(name_, spelling, ...) \
  if (name == spelling) {                           \
    return Builtin::name_;                          \
  }
  CASH_IR_BUILTIN_LIST(CASH_IR_BUILTIN_MATCH)
#undef CASH_IR_BUILTIN_MATCH
  return Builtin::kNone;
}

namespace {

template <class... Params>
constexpr BuiltinSignature make_signature(Type result, Params... params) {
  return {result, {params...}, sizeof...(Params)};
}

} // namespace

const BuiltinSignature& signature(Builtin builtin) noexcept {
  using enum Type;
  static constexpr BuiltinSignature kSignatures[] = {
#define CASH_IR_BUILTIN_SIGNATURE(name, spelling, cycles, result, ...) \
  make_signature(result __VA_OPT__(, ) __VA_ARGS__),
      CASH_IR_BUILTIN_LIST(CASH_IR_BUILTIN_SIGNATURE)
#undef CASH_IR_BUILTIN_SIGNATURE
  };
  return kSignatures[static_cast<std::size_t>(builtin) - 1];
}

const char* to_string(BinOp op) noexcept {
  static constexpr const char* kNames[] = {
      "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
      "cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(BinOp::kCmpGe) + 1);
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* to_string(UnOp op) noexcept {
  static constexpr const char* kNames[] = {"neg", "lnot", "bnot", "i2f",
                                           "f2i"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(UnOp::kFloatToInt) + 1);
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kNames) ? kNames[i] : "?";
}

} // namespace cash::ir
