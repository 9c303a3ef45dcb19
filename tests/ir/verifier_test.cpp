// The verifier's loop-record and module-level checks, on hand-built IR. The
// front end never produces these defects, so only hand-made modules reach
// them; each case pins the full problem list, in order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/verifier.hpp"

namespace cash::ir {
namespace {

using Problems = std::vector<std::string>;

void jump(BasicBlock& from, BlockId to) {
  Instr j;
  j.op = Opcode::kJump;
  j.target0 = to;
  from.instrs.push_back(j);
}

// entry(0) -> pre(1) -> header(2) -> body(3) | exit(4); body -> header, and
// `extra` more blocks after exit (5, 6, ...), each jumping to the header.
// Loop 0 is recorded with preheader 1, header 2 and body {2, 3}.
std::unique_ptr<Function> make_function(const std::string& name,
                                        int extra = 0) {
  auto f = std::make_unique<Function>();
  f->name = name;
  BasicBlock& entry = f->new_block("entry");
  BasicBlock& pre = f->new_block("pre");
  BasicBlock& header = f->new_block("header");
  BasicBlock& body = f->new_block("body");
  BasicBlock& exit = f->new_block("exit");
  f->entry = entry.id;
  jump(entry, pre.id);
  jump(pre, header.id);
  const Reg cond = f->new_reg();
  Instr c;
  c.op = Opcode::kConstInt;
  c.dst = cond;
  c.int_imm = 1;
  header.instrs.push_back(c);
  Instr br;
  br.op = Opcode::kBranch;
  br.src0 = cond;
  br.target0 = body.id;
  br.target1 = exit.id;
  header.instrs.push_back(br);
  jump(body, header.id);
  Instr ret;
  ret.op = Opcode::kRet;
  exit.instrs.push_back(ret);
  for (int i = 0; i < extra; ++i) {
    jump(f->new_block("extra"), header.id);
  }

  Loop loop;
  loop.id = 0;
  loop.preheader = pre.id;
  loop.header = header.id;
  loop.body = {header.id, body.id};
  f->loops.push_back(loop);
  return f;
}

// Adds loop 1 nested in loop 0, with the given header and body.
void add_inner_loop(Function& f, BlockId header, std::vector<BlockId> body) {
  Loop inner;
  inner.id = 1;
  inner.parent = 0;
  inner.depth = 2;
  inner.preheader = 0;
  inner.header = header;
  inner.body = std::move(body);
  f.loops.push_back(inner);
}

TEST(Verifier, WellFormedLoopHasNoProblems) {
  EXPECT_EQ(verify(*make_function("ok")), Problems{});
}

TEST(Verifier, LoopHeaderOutsideItsBody) {
  auto f = make_function("f");
  f->loops[0].body = {3};
  EXPECT_EQ(verify(*f),
            (Problems{"f: loop header not contained in its own body"}));
}

TEST(Verifier, LoopPreheaderInsideItsBody) {
  auto f = make_function("f");
  f->loops[0].body = {1, 2, 3};
  EXPECT_EQ(verify(*f),
            (Problems{"f: loop preheader must be outside the loop body"}));
}

TEST(Verifier, HeaderAndPreheaderProblemsKeepTheirOrder) {
  auto f = make_function("f");
  f->loops[0].header = 4;
  f->loops[0].body = {1, 3};
  EXPECT_EQ(verify(*f),
            (Problems{"f: loop header not contained in its own body",
                      "f: loop preheader must be outside the loop body"}));
}

TEST(Verifier, NestedLoopBodyEscapesItsParent) {
  auto f = make_function("f", 1);
  add_inner_loop(*f, 3, {3, 5});
  EXPECT_EQ(verify(*f),
            (Problems{"f: nested loop body escapes its parent loop"}));
}

TEST(Verifier, NestedLoopInsideItsParentIsFine) {
  auto f = make_function("f");
  add_inner_loop(*f, 3, {3});
  EXPECT_EQ(verify(*f), Problems{});
}

TEST(Verifier, LoopBodyWithOutOfRangeBlockIds) {
  // The body list itself is not range-checked: an out-of-range id only
  // matters through the membership tests it takes part in.
  auto f = make_function("f");
  f->loops[0].body = {2, 3, 99, -7};
  EXPECT_EQ(verify(*f), Problems{});

  // An out-of-range header is found in a body that lists the same id...
  f->loops[0].header = 99;
  EXPECT_EQ(verify(*f), Problems{});
  // ...and reported when the body does not list it.
  f->loops[0].header = 42;
  EXPECT_EQ(verify(*f),
            (Problems{"f: loop header not contained in its own body"}));

  // An out-of-range preheader inside the body, and a nested body whose
  // out-of-range ids its parent lacks, are reported in loop order.
  auto g = make_function("g");
  g->loops[0].preheader = -7;
  g->loops[0].body = {2, 3, -7};
  add_inner_loop(*g, 3, {3, 1000});
  EXPECT_EQ(verify(*g),
            (Problems{"g: loop preheader must be outside the loop body",
                      "g: nested loop body escapes its parent loop"}));
  g->loops[0].body.push_back(1000);
  EXPECT_EQ(verify(*g),
            (Problems{"g: loop preheader must be outside the loop body"}));
}

TEST(Verifier, AddrLocalOfAnOutOfRangeSlotIsOneProblem) {
  // The slot is reported once; the array check must not index past the
  // function's locals.
  auto f = make_function("f");
  LocalSlot scalar;
  scalar.name = "x";
  f->locals.push_back(scalar);
  for (std::int32_t slot : {-1, 1, 0}) {
    Instr addr;
    addr.op = Opcode::kAddrLocal;
    addr.dst = 0;
    addr.slot = slot;
    BasicBlock& body = f->block(3);
    body.instrs.insert(body.instrs.begin(), addr);
  }
  EXPECT_EQ(verify(*f),
            (Problems{"f: addr.local of a non-array slot (scalars have no "
                      "address)",
                      "f: block body instr 1: local slot out of range",
                      "f: block body instr 2: local slot out of range"}));
}

TEST(Verifier, CallsNeedACallSiteWithArgumentsInRange) {
  // Call 0 is fine, call 1 passes register 5 of 1, and calls -1 and 2 name
  // no entry of the function's call-site table.
  auto f = make_function("f");
  f->calls.push_back({"print_int", {0}, Builtin::kPrintInt});
  f->calls.push_back({"print_int", {5}, Builtin::kPrintInt});
  for (std::int32_t site : {2, -1, 1, 0}) {
    Instr call;
    call.op = Opcode::kCall;
    call.call = site;
    BasicBlock& body = f->block(3);
    body.instrs.insert(body.instrs.begin(), call);
  }
  EXPECT_EQ(verify(*f),
            (Problems{"f: block body instr 1: arg register out of range",
                      "f: block body instr 2: call site out of range",
                      "f: block body instr 3: call site out of range"}));
}

TEST(Verifier, DuplicateFunctionNamesAreReportedAfterFunctionProblems) {
  Module m;
  m.functions.push_back(make_function("f"));
  m.functions.push_back(make_function("g"));
  m.functions.push_back(make_function("f"));
  m.functions.push_back(make_function("h"));
  m.functions.push_back(make_function("g"));
  m.functions.push_back(make_function("f"));
  m.functions[3]->loops[0].body = {3};
  EXPECT_EQ(verify(m),
            (Problems{"h: loop header not contained in its own body",
                      "duplicate function name: f",
                      "duplicate function name: g",
                      "duplicate function name: f"}));
}

TEST(Verifier, DistinctFunctionNamesAreFine) {
  Module m;
  m.functions.push_back(make_function("f"));
  m.functions.push_back(make_function("g"));
  m.functions.push_back(make_function("fg"));
  EXPECT_EQ(verify(m), Problems{});
}

} // namespace
} // namespace cash::ir
