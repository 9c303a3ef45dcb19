#pragma once

#include <cstdint>
#include <string_view>

#include "common/diagnostics.hpp"

namespace cash::frontend {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdent,
  kIntLit,
  kFloatLit,
  // keywords
  kKwInt, kKwFloat, kKwVoid, kKwIf, kKwElse, kKwWhile, kKwFor, kKwReturn,
  kKwBreak, kKwContinue,
  // punctuation
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kSemicolon,
  // operators
  kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign,
  kPercentAssign,
  kPlusPlus, kMinusMinus,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmpAmp, kPipePipe, kBang,
  kAmp, kPipe, kCaret, kTilde, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

struct Token {
  TokenKind kind{TokenKind::kEof};
  std::string_view text;   // identifier spelling, a view into the source
  std::int32_t int_value{0};
  float float_value{0.0F};
  SourceLoc loc;
};

const char* to_string(TokenKind kind) noexcept;

} // namespace cash::frontend
