#pragma once

#include <cstdint>

namespace cash::ir {

// MiniC is word-oriented: every scalar is one 32-bit word, which matches the
// IA-32 model the paper targets and keeps the addressing arithmetic honest
// (element stride is always 4 bytes).
enum class Type : std::uint8_t {
  kVoid,
  kInt,      // 32-bit signed integer
  kFloat,    // 32-bit float
  kIntPtr,   // pointer to int array
  kFloatPtr, // pointer to float array
};

inline constexpr bool is_pointer(Type type) noexcept {
  return type == Type::kIntPtr || type == Type::kFloatPtr;
}

inline constexpr Type pointee(Type type) noexcept {
  return type == Type::kIntPtr ? Type::kInt
         : type == Type::kFloatPtr ? Type::kFloat
                                   : Type::kVoid;
}

inline constexpr Type pointer_to(Type type) noexcept {
  return type == Type::kInt ? Type::kIntPtr
         : type == Type::kFloat ? Type::kFloatPtr
                                : Type::kVoid;
}

inline constexpr std::uint32_t kWordSize = 4;

const char* to_string(Type type) noexcept;

} // namespace cash::ir
