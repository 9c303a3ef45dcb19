#include "frontend/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

namespace cash::frontend {

namespace {
// The largest decimal literal: MiniC's int is 32-bit signed, and a leading
// '-' is a separate operator, as in C.
constexpr std::uint64_t kIntMax = 2147483647;

// The keyword spelled `word`, or kIdent.
TokenKind keyword_or_ident(std::string_view word) noexcept {
  static constexpr std::pair<std::string_view, TokenKind> kKeywords[] = {
      {"int", TokenKind::kKwInt},     {"float", TokenKind::kKwFloat},
      {"void", TokenKind::kKwVoid},   {"if", TokenKind::kKwIf},
      {"else", TokenKind::kKwElse},   {"while", TokenKind::kKwWhile},
      {"for", TokenKind::kKwFor},     {"return", TokenKind::kKwReturn},
      {"break", TokenKind::kKwBreak}, {"continue", TokenKind::kKwContinue},
  };
  for (const auto& [spelling, kind] : kKeywords) {
    if (spelling == word) {
      return kind;
    }
  }
  return TokenKind::kIdent;
}
} // namespace

const char* to_string(TokenKind kind) noexcept {
  // In TokenKind order.
  static constexpr const char* kNames[] = {
      "end of input", "identifier", "integer literal", "float literal",
      "'int'", "'float'", "'void'", "'if'", "'else'", "'while'", "'for'",
      "'return'", "'break'", "'continue'",
      "'('", "')'", "'{'", "'}'", "'['", "']'", "','", "';'",
      "'='", "'+='", "'-='", "'*='", "'/='", "'%='", "'++'", "'--'",
      "'+'", "'-'", "'*'", "'/'", "'%'", "'&&'", "'||'", "'!'",
      "'&'", "'|'", "'^'", "'~'", "'<<'", "'>>'",
      "'=='", "'!='", "'<'", "'<='", "'>'", "'>='",
  };
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(TokenKind::kGe) + 1);
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "?";
}

char Lexer::peek(int ahead) const noexcept {
  const std::size_t at = pos_ + static_cast<std::size_t>(ahead);
  return at < source_.size() ? source_[at] : '\0';
}

char Lexer::advance() noexcept {
  const char c = peek();
  ++pos_;
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) noexcept {
  if (peek() != expected) {
    return false;
  }
  advance();
  return true;
}

std::uint64_t Lexer::literal_value(SourceLoc loc, std::string_view digits,
                                   unsigned base, std::uint64_t max) {
  std::uint64_t value = 0;
  for (char c : digits) {
    const unsigned digit =
        std::isdigit(static_cast<unsigned char>(c))
            ? static_cast<unsigned>(c - '0')
            : static_cast<unsigned>(std::tolower(c) - 'a' + 10);
    value = value * base + digit;
    if (value > max) {
      diagnostics_->error(loc, "integer literal out of range");
      return 0;
    }
  }
  return value;
}

void Lexer::lex_number(std::vector<Token>& out) {
  Token token;
  token.loc = loc();

  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    const std::size_t start = pos_;
    while (std::isxdigit(static_cast<unsigned char>(peek()))) {
      advance();
    }
    token.kind = TokenKind::kIntLit;
    // A hex literal is a 32-bit pattern: 0xFFFFFFFF is -1.
    token.int_value = static_cast<std::int32_t>(
        literal_value(token.loc, since(start), 16, 0xFFFFFFFFULL));
    out.push_back(token);
    return;
  }

  const std::size_t start = pos_;
  bool is_float = false;
  while (std::isdigit(static_cast<unsigned char>(peek()))) {
    advance();
  }
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    is_float = true;
    advance();
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      advance();
    }
  }
  if (peek() == 'e' || peek() == 'E') {
    const char sign = peek(1);
    if (std::isdigit(static_cast<unsigned char>(sign)) ||
        ((sign == '+' || sign == '-') &&
         std::isdigit(static_cast<unsigned char>(peek(2))))) {
      is_float = true;
      advance(); // e
      if (peek() == '+' || peek() == '-') {
        advance();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
  }
  if (is_float) {
    token.kind = TokenKind::kFloatLit;
    // strtof needs a terminated copy; float literals are rare.
    token.float_value = std::strtof(std::string(since(start)).c_str(), nullptr);
  } else {
    token.kind = TokenKind::kIntLit;
    token.int_value = static_cast<std::int32_t>(
        literal_value(token.loc, since(start), 10, kIntMax));
  }
  out.push_back(token);
}

void Lexer::lex_ident(std::vector<Token>& out) {
  Token token;
  token.loc = loc();
  const std::size_t start = pos_;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
    advance();
  }
  token.text = since(start);
  token.kind = keyword_or_ident(token.text);
  if (token.kind != TokenKind::kIdent) {
    token.text = {};
  }
  out.push_back(token);
}

std::vector<Token> Lexer::lex() {
  std::vector<Token> out;
  // The workloads have one token per 2.1 to 3.4 source bytes; denser
  // source regrows the vector once. Capped, so that a huge source of
  // comments reserves no more than 64 Ki tokens up front.
  out.reserve(std::min<std::size_t>(source_.size() / 2 + 1, 1 << 16));
  while (pos_ < source_.size()) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0') {
        advance();
      }
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const SourceLoc start = loc();
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/')) {
        if (peek() == '\0') {
          diagnostics_->error(start, "unterminated block comment");
          break;
        }
        advance();
      }
      if (peek() != '\0') {
        advance();
        advance();
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_number(out);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      lex_ident(out);
      continue;
    }

    Token token;
    token.loc = loc();
    advance();
    switch (c) {
      case '(': token.kind = TokenKind::kLParen; break;
      case ')': token.kind = TokenKind::kRParen; break;
      case '{': token.kind = TokenKind::kLBrace; break;
      case '}': token.kind = TokenKind::kRBrace; break;
      case '[': token.kind = TokenKind::kLBracket; break;
      case ']': token.kind = TokenKind::kRBracket; break;
      case ',': token.kind = TokenKind::kComma; break;
      case ';': token.kind = TokenKind::kSemicolon; break;
      case '~': token.kind = TokenKind::kTilde; break;
      case '^': token.kind = TokenKind::kCaret; break;
      case '+':
        token.kind = match('+')   ? TokenKind::kPlusPlus
                     : match('=') ? TokenKind::kPlusAssign
                                  : TokenKind::kPlus;
        break;
      case '-':
        token.kind = match('-')   ? TokenKind::kMinusMinus
                     : match('=') ? TokenKind::kMinusAssign
                                  : TokenKind::kMinus;
        break;
      case '*':
        token.kind = match('=') ? TokenKind::kStarAssign : TokenKind::kStar;
        break;
      case '/':
        token.kind = match('=') ? TokenKind::kSlashAssign : TokenKind::kSlash;
        break;
      case '%':
        token.kind =
            match('=') ? TokenKind::kPercentAssign : TokenKind::kPercent;
        break;
      case '&':
        token.kind = match('&') ? TokenKind::kAmpAmp : TokenKind::kAmp;
        break;
      case '|':
        token.kind = match('|') ? TokenKind::kPipePipe : TokenKind::kPipe;
        break;
      case '!':
        token.kind = match('=') ? TokenKind::kNe : TokenKind::kBang;
        break;
      case '=':
        token.kind = match('=') ? TokenKind::kEq : TokenKind::kAssign;
        break;
      case '<':
        token.kind = match('<')   ? TokenKind::kShl
                     : match('=') ? TokenKind::kLe
                                  : TokenKind::kLt;
        break;
      case '>':
        token.kind = match('>')   ? TokenKind::kShr
                     : match('=') ? TokenKind::kGe
                                  : TokenKind::kGt;
        break;
      default:
        diagnostics_->error(token.loc,
                            std::string("unexpected character '") + c + "'");
        continue;
    }
    out.push_back(token);
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.loc = loc();
  out.push_back(eof);
  return out;
}

} // namespace cash::frontend
