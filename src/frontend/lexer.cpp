#include "frontend/lexer.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>

namespace cash::frontend {

namespace {
// The largest decimal literal: MiniC's int is 32-bit signed, and a leading
// '-' is a separate operator, as in C.
constexpr std::uint64_t kIntMax = 2147483647;

const std::map<std::string, TokenKind, std::less<>>& keywords() {
  static const std::map<std::string, TokenKind, std::less<>> kKeywords = {
      {"int", TokenKind::kKwInt},     {"float", TokenKind::kKwFloat},
      {"void", TokenKind::kKwVoid},   {"if", TokenKind::kKwIf},
      {"else", TokenKind::kKwElse},   {"while", TokenKind::kKwWhile},
      {"for", TokenKind::kKwFor},     {"return", TokenKind::kKwReturn},
      {"break", TokenKind::kKwBreak}, {"continue", TokenKind::kKwContinue},
  };
  return kKeywords;
}
} // namespace

const char* to_string(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kEof:           return "end of input";
    case TokenKind::kIdent:         return "identifier";
    case TokenKind::kIntLit:        return "integer literal";
    case TokenKind::kFloatLit:      return "float literal";
    case TokenKind::kKwInt:         return "'int'";
    case TokenKind::kKwFloat:       return "'float'";
    case TokenKind::kKwVoid:        return "'void'";
    case TokenKind::kKwIf:          return "'if'";
    case TokenKind::kKwElse:        return "'else'";
    case TokenKind::kKwWhile:       return "'while'";
    case TokenKind::kKwFor:         return "'for'";
    case TokenKind::kKwReturn:      return "'return'";
    case TokenKind::kKwBreak:       return "'break'";
    case TokenKind::kKwContinue:    return "'continue'";
    case TokenKind::kLParen:        return "'('";
    case TokenKind::kRParen:        return "')'";
    case TokenKind::kLBrace:        return "'{'";
    case TokenKind::kRBrace:        return "'}'";
    case TokenKind::kLBracket:      return "'['";
    case TokenKind::kRBracket:      return "']'";
    case TokenKind::kComma:         return "','";
    case TokenKind::kSemicolon:     return "';'";
    case TokenKind::kAssign:        return "'='";
    case TokenKind::kPlusAssign:    return "'+='";
    case TokenKind::kMinusAssign:   return "'-='";
    case TokenKind::kStarAssign:    return "'*='";
    case TokenKind::kSlashAssign:   return "'/='";
    case TokenKind::kPercentAssign: return "'%='";
    case TokenKind::kPlusPlus:      return "'++'";
    case TokenKind::kMinusMinus:    return "'--'";
    case TokenKind::kPlus:          return "'+'";
    case TokenKind::kMinus:         return "'-'";
    case TokenKind::kStar:          return "'*'";
    case TokenKind::kSlash:         return "'/'";
    case TokenKind::kPercent:       return "'%'";
    case TokenKind::kAmpAmp:        return "'&&'";
    case TokenKind::kPipePipe:      return "'||'";
    case TokenKind::kBang:          return "'!'";
    case TokenKind::kAmp:           return "'&'";
    case TokenKind::kPipe:          return "'|'";
    case TokenKind::kCaret:         return "'^'";
    case TokenKind::kTilde:         return "'~'";
    case TokenKind::kShl:           return "'<<'";
    case TokenKind::kShr:           return "'>>'";
    case TokenKind::kEq:            return "'=='";
    case TokenKind::kNe:            return "'!='";
    case TokenKind::kLt:            return "'<'";
    case TokenKind::kLe:            return "'<='";
    case TokenKind::kGt:            return "'>'";
    case TokenKind::kGe:            return "'>='";
  }
  return "?";
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

std::uint64_t Lexer::literal_value(SourceLoc loc, const std::string& digits,
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
  std::string text;

  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    while (std::isxdigit(static_cast<unsigned char>(peek()))) {
      text.push_back(advance());
    }
    token.kind = TokenKind::kIntLit;
    // A hex literal is a 32-bit pattern: 0xFFFFFFFF is -1.
    token.int_value = static_cast<std::int32_t>(
        literal_value(token.loc, text, 16, 0xFFFFFFFFULL));
    out.push_back(std::move(token));
    return;
  }

  bool is_float = false;
  while (std::isdigit(static_cast<unsigned char>(peek()))) {
    text.push_back(advance());
  }
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    is_float = true;
    text.push_back(advance());
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      text.push_back(advance());
    }
  }
  if (peek() == 'e' || peek() == 'E') {
    const char sign = peek(1);
    if (std::isdigit(static_cast<unsigned char>(sign)) ||
        ((sign == '+' || sign == '-') &&
         std::isdigit(static_cast<unsigned char>(peek(2))))) {
      is_float = true;
      text.push_back(advance()); // e
      if (peek() == '+' || peek() == '-') {
        text.push_back(advance());
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        text.push_back(advance());
      }
    }
  }
  if (is_float) {
    token.kind = TokenKind::kFloatLit;
    token.float_value = std::strtof(text.c_str(), nullptr);
  } else {
    token.kind = TokenKind::kIntLit;
    token.int_value =
        static_cast<std::int32_t>(literal_value(token.loc, text, 10, kIntMax));
  }
  out.push_back(std::move(token));
}

void Lexer::lex_ident(std::vector<Token>& out) {
  Token token;
  token.loc = loc();
  std::string text;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
    text.push_back(advance());
  }
  const auto it = keywords().find(text);
  if (it != keywords().end()) {
    token.kind = it->second;
  } else {
    token.kind = TokenKind::kIdent;
    token.text = std::move(text);
  }
  out.push_back(std::move(token));
}

std::vector<Token> Lexer::lex() {
  std::vector<Token> out;
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
    out.push_back(std::move(token));
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.loc = loc();
  out.push_back(std::move(eof));
  return out;
}

} // namespace cash::frontend
