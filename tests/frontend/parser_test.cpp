// Parser unit tests: AST shapes, operator precedence and associativity
// (validated through evaluation), and statement-level error recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/cash.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"

namespace cash::frontend {
namespace {

TranslationUnit parse_ok(std::string_view source) {
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  Parser parser(lexer.lex(), diagnostics);
  TranslationUnit unit = parser.parse();
  EXPECT_FALSE(diagnostics.has_errors()) << diagnostics.to_string();
  return unit;
}

int parse_error_count(std::string_view source) {
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  Parser parser(lexer.lex(), diagnostics);
  (void)parser.parse();
  return diagnostics.error_count();
}

TEST(Parser, TopLevelShapes) {
  const TranslationUnit unit = parse_ok(R"(
int counter;
float samples[256];
void reset() { counter = 0; }
int get(int *p, float scale) { return p[0]; }
int main() { return 0; }
)");
  ASSERT_EQ(unit.globals.size(), 2U);
  EXPECT_FALSE(unit.globals[0].is_array);
  EXPECT_TRUE(unit.globals[1].is_array);
  EXPECT_EQ(unit.globals[1].elem_count, 256U);
  ASSERT_EQ(unit.functions.size(), 3U);
  EXPECT_EQ(unit.functions[0]->return_type, ir::Type::kVoid);
  ASSERT_EQ(unit.functions[1]->params.size(), 2U);
  EXPECT_EQ(unit.functions[1]->params[0].type, ir::Type::kIntPtr);
  EXPECT_EQ(unit.functions[1]->params[1].type, ir::Type::kFloat);
}

TEST(Parser, StatementShapes) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int i;
  if (i) { i = 1; } else { i = 2; }
  while (i < 10) { i++; }
  for (i = 0; i < 4; i++) { continue; }
  { break; }
  return i;
}
)");
  const auto& body = unit.functions[0]->body->body;
  ASSERT_EQ(body.size(), 6U);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kIf);
  EXPECT_NE(body[1]->else_branch, nullptr);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kFor);
  EXPECT_EQ(body[4]->kind, StmtKind::kBlock);
  EXPECT_EQ(body[5]->kind, StmtKind::kReturn);
}

TEST(Parser, DanglingElseBindsToNearestIf) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int a;
  if (1)
    if (0) a = 1;
    else a = 2;
  return a;
}
)");
  const Stmt& outer = *unit.functions[0]->body->body[1];
  ASSERT_EQ(outer.kind, StmtKind::kIf);
  EXPECT_EQ(outer.else_branch, nullptr);
  ASSERT_EQ(outer.then_branch->kind, StmtKind::kIf);
  EXPECT_NE(outer.then_branch->else_branch, nullptr);
}

// Precedence and associativity validated by actually evaluating.
struct PrecedenceCase {
  const char* name;
  const char* expr;
  int expected;
};

// ctest shows the parameter next to the case name, so print the
// expression rather than the struct's bytes (which hold pointers).
void PrintTo(const PrecedenceCase& c, std::ostream* os) { *os << c.expr; }

class Precedence : public testing::TestWithParam<PrecedenceCase> {};

TEST_P(Precedence, EvaluatesLikeC) {
  const std::string source = std::string("int main() { return ") +
                             GetParam().expr + "; }";
  CompileResult compiled = compile(source);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult run = compiled.program->run();
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.exit_code, GetParam().expected) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Precedence,
    testing::Values(PrecedenceCase{"MulBeforeAdd", "2 + 3 * 4", 14},
                    PrecedenceCase{"Parentheses", "(2 + 3) * 4", 20},
                    PrecedenceCase{"SubLeftAssoc", "20 - 8 - 4", 8},
                    PrecedenceCase{"DivLeftAssoc", "100 / 10 / 2", 5},
                    PrecedenceCase{"AddBeforeShift", "1 << 2 + 1", 8},
                    PrecedenceCase{"EqBeforeBitAnd", "7 & 3 == 3", 1},
                    PrecedenceCase{"XorBeforeBitOr", "1 | 2 ^ 2", 1},
                    PrecedenceCase{"AndBeforeOr", "0 || 2 && 0", 0},
                    PrecedenceCase{"ParenthesisedCompare", "1 + (2 < 3)", 2},
                    PrecedenceCase{"NegBeforeAdd", "-3 + 5", 2},
                    PrecedenceCase{"BitNotBeforeAdd", "~0 + 2", 1},
                    PrecedenceCase{"RemMulLeftAssoc", "10 % 4 * 2", 4}),
    [](const testing::TestParamInfo<PrecedenceCase>& info) {
      return std::string(info.param.name);
    });

TEST(Parser, AssignmentIsRightAssociative) {
  CompileResult compiled = compile(R"(
int main() {
  int a; int b; int c;
  a = b = c = 7;
  return a + b + c;
}
)");
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.program->run().exit_code, 21);
}

TEST(Parser, PostfixAndPrefixIncrement) {
  CompileResult compiled = compile(R"(
int main() {
  int a = 5;
  int b;
  b = a++;
  b = b * 100 + ++a;
  return b;  // 5*100 + 7
}
)");
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.program->run().exit_code, 507);
}

TEST(Parser, RecoversAtStatementBoundary) {
  // One bad statement yields one error; the next statement still parses
  // (so the next error is also found).
  const int errors = parse_error_count(R"(
int main() {
  int a = ) 3;
  int b = ( 4;
  return 0;
}
)");
  EXPECT_GE(errors, 2);
}

TEST(Parser, MissingSemicolonIsDiagnosed) {
  EXPECT_GE(parse_error_count("int main() { int a = 3 return a; }"), 1);
}

TEST(Parser, ArraySizeMustBePositiveConstant) {
  EXPECT_GE(parse_error_count("int a[0]; int main() { return 0; }"), 1);
  EXPECT_GE(parse_error_count("int main() { int n; int a[n]; return 0; }"),
            1);
}

std::string repeat(const std::string& text, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += text;
  }
  return out;
}

TEST(Parser, StrayTopLevelBraceIsOneError) {
  EXPECT_EQ(parse_error_count("}"), 1);
  EXPECT_EQ(parse_error_count("int main() { return 0; } }"), 1);
}

TEST(Parser, StoredErrorsAreCappedButAllCounted) {
  // One error per stray '@': the count stays exact while the rendered
  // text stops at kMaxStored lines plus one summary line.
  const int n = 200000;
  const std::string source = "int main() {" + repeat(" @", n) + " return 0; }";
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  Parser parser(lexer.lex(), diagnostics);
  (void)parser.parse();
  EXPECT_EQ(diagnostics.error_count(), n);
  EXPECT_EQ(diagnostics.diagnostics().size(), DiagnosticSink::kMaxStored);
  const std::string text = diagnostics.to_string();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            DiagnosticSink::kMaxStored + 1);
  const std::string last_line =
      std::to_string(n - static_cast<int>(DiagnosticSink::kMaxStored)) +
      " more errors\n";
  EXPECT_EQ(text.substr(text.size() - last_line.size()), last_line);
}

TEST(Parser, DeepNestingIsOneErrorNotACrash) {
  const int n = 200000;
  const std::string sources[] = {
      "int main() { return " + repeat("(", n) + "1; }",
      "int main() { return " + repeat("(", n) + "1" + repeat(")", n) + "; }",
      "int main() { return " + repeat("1 + ", n) + "1; }",
      "int main() { return " + repeat("- ", n) + "1; }",
      "int main() { int a; " + repeat("a = ", n) + "1; return a; }",
      "int a[4]; int main() { return a" + repeat("[0]", n) + "; }",
      "int main() { " + repeat("{", n) + repeat("}", n) + " return 0; }",
      "int main() { " + repeat("if (1) ", n) + "return 0; }",
  };
  for (const std::string& source : sources) {
    const std::string head = source.substr(0, 40);
    EXPECT_EQ(parse_error_count(source), 1) << head;
    const CompileResult compiled = compile(source);
    EXPECT_FALSE(compiled.ok()) << head;
    EXPECT_NE(compiled.error.find(
                  "nesting deeper than " +
                  std::to_string(Parser::kMaxNestingDepth) + " levels"),
              std::string::npos)
        << head << ": " << compiled.error.substr(0, 200);
  }
}

TEST(Parser, NestingUpToTheCapCompiles) {
  // `return e;` is two levels (the statement and the expression); each '('
  // or binary-operator link adds one, so cap - 2 of either still fit.
  const int fits = Parser::kMaxNestingDepth - 2;
  CompileResult sum =
      compile("int main() { return " + repeat("1 + ", fits) + "1; }");
  ASSERT_TRUE(sum.ok()) << sum.error;
  EXPECT_EQ(sum.program->run().exit_code, fits + 1);
  CompileResult parens = compile("int main() { return " + repeat("(", fits) +
                                 "1" + repeat(")", fits) + "; }");
  ASSERT_TRUE(parens.ok()) << parens.error;
  EXPECT_EQ(parens.program->run().exit_code, 1);
  // One more link is one level too many.
  EXPECT_EQ(parse_error_count("int main() { return " + repeat("1 + ", fits) +
                              "1 + 1; }"),
            1);
}

TEST(Parser, ForHeaderPartsAreOptional) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int i = 0;
  for (;;) { break; }
  for (; i < 3;) { i++; }
  return i;
}
)");
  const Stmt& bare = *unit.functions[0]->body->body[1];
  EXPECT_EQ(bare.for_init, nullptr);
  EXPECT_EQ(bare.cond, nullptr);
  EXPECT_EQ(bare.for_step, nullptr);
}

} // namespace
} // namespace cash::frontend
