#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "frontend/token.hpp"

namespace cash::frontend {

// Hand-written MiniC lexer. Supports // and /* */ comments, decimal and hex
// integer literals, and float literals with optional exponent. A decimal
// literal above 2147483647, or a hex literal above 0xFFFFFFFF, is an error.
//
// The lexer views its source and does not copy it, and each identifier
// token's text views the source too. So the source must outlive the lexer,
// its tokens and the tree parsed from them. Constructing a lexer from a
// temporary std::string does not compile; a string literal (static
// storage) does.
class Lexer {
 public:
  Lexer(std::string_view source, DiagnosticSink& diagnostics)
      : source_(source), diagnostics_(&diagnostics) {}
  Lexer(const char* source, DiagnosticSink& diagnostics)
      : Lexer(std::string_view(source), diagnostics) {}
  Lexer(const std::string&& source, DiagnosticSink& diagnostics) = delete;

  // Tokenizes the whole buffer; always ends with a kEof token.
  std::vector<Token> lex();

 private:
  char peek(int ahead = 0) const noexcept;
  char advance() noexcept;
  bool match(char expected) noexcept;
  SourceLoc loc() const noexcept { return {line_, column_}; }

  void lex_number(std::vector<Token>& out);
  // The source from `start` to the current position.
  std::string_view since(std::size_t start) const noexcept {
    return source_.substr(start, pos_ - start);
  }
  // The value of `digits` in `base`; reports "integer literal out of
  // range" at `loc` and returns 0 once the value exceeds `max`.
  std::uint64_t literal_value(SourceLoc loc, std::string_view digits,
                              unsigned base, std::uint64_t max);
  void lex_ident(std::vector<Token>& out);

  std::string_view source_;
  DiagnosticSink* diagnostics_;
  std::size_t pos_{0};
  int line_{1};
  int column_{1};
};

} // namespace cash::frontend
