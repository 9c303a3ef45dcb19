// CASH_IR_OPCODE_LIST is the one statement of what each opcode is. These
// tests pin its operand columns to what the pipeline emits, and check that
// the verifier reports every instruction the VM's decoder rejects.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cash.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "vm/decode.hpp"
#include "workloads/fuzz.hpp"
#include "workloads/workloads.hpp"

namespace cash::ir {
namespace {

using passes::CheckMode;

constexpr CheckMode kAllModes[] = {CheckMode::kNoCheck,   CheckMode::kBcc,
                                   CheckMode::kCash,      CheckMode::kBoundInsn,
                                   CheckMode::kEfence,    CheckMode::kShadow};

// The first way `instr` disagrees with its row's operand columns, or "".
// A required operand must be set and an unused one unset; an optional one
// may be either. A builtin call sets dst exactly when the builtin returns a
// value.
std::string column_mismatch(const Function& f, const Instr& instr) {
  const OpInfo& row = op_info(instr.op);
  const auto check = [](Use use, bool set) {
    return use == Use::kOptional ||
           set == (use != Use::kUnused && use != Use::kWhenRebased);
  };
  Use dst = row.dst;
  if (instr.op == Opcode::kCall && f.call_site(instr).builtin != Builtin::kNone) {
    dst = signature(f.call_site(instr).builtin).result == Type::kVoid
              ? Use::kUnused
              : Use::kRequired;
  }
  const Use seg = row.seg == Use::kWhenRebased && instr.rebased
                      ? Use::kRequired
                      : row.seg;
  const struct {
    const char* name;
    Use use;
    bool set;
  } operands[] = {
      {"dst", dst, instr.dst != kNoReg},
      {"src0", row.src0, instr.src0 != kNoReg},
      {"src1", row.src1, instr.src1 != kNoReg},
      {"slot", row.slot, instr.slot != -1},
      {"symbol", row.symbol, instr.symbol != kNoSymbol},
      {"target0", row.target0, instr.target0 != kNoBlock},
      {"target1", row.target1, instr.target1 != kNoBlock},
      {"seg", seg, instr.seg != -1},
      {"call", row.call, instr.call != -1},
  };
  for (const auto& operand : operands) {
    if (!check(operand.use, operand.set)) {
      return std::string(to_string(instr.op)) + " " + operand.name +
             (operand.set ? " is set" : " is unset");
    }
  }
  return "";
}

// Checks every instruction of `source` compiled in every mode, with and
// without check elision, against its row.
void expect_columns_hold(const std::string& label, const std::string& source) {
  for (const CheckMode mode : kAllModes) {
    for (const bool elide : {false, true}) {
      CompileOptions options;
      options.lower.mode = mode;
      options.lower.elide_checks = elide;
      const CompileResult compiled = compile(source, options);
      ASSERT_TRUE(compiled.ok()) << label << ": " << compiled.error;
      for (const auto& f : compiled.program->module().functions) {
        for (const auto& block : f->blocks) {
          for (const Instr& instr : block->instrs) {
            const std::string mismatch = column_mismatch(*f, instr);
            ASSERT_EQ(mismatch, "")
                << label << " mode " << static_cast<int>(mode) << " elide "
                << elide << " " << f->name << ": " << to_text(instr, *f);
          }
        }
      }
    }
  }
}

TEST(OpcodeTable, ColumnsMatchWhatTheWorkloadsCompileTo) {
  for (const auto* suite : {&workloads::micro_suite(),
                            &workloads::macro_suite(),
                            &workloads::network_suite()}) {
    for (const workloads::Workload& w : *suite) {
      expect_columns_hold(w.name, w.source);
    }
  }
}

TEST(OpcodeTable, ColumnsMatchWhatTheFuzzProgramsCompileTo) {
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    expect_columns_hold("fuzz seed " + std::to_string(seed),
                        workloads::generate_fuzz_program(seed));
  }
}

// A module the decoder takes: globals `g` (scalar, symbol 0) and `a`
// (array, symbol 1), and main, whose one block loads g, calls sqrt on it,
// reads a[0] and returns. `mutate` then breaks one instruction of it.
std::unique_ptr<Module> make_module(
    const std::function<void(Function&, std::vector<Instr>&)>& mutate) {
  auto m = std::make_unique<Module>();
  m->globals.push_back({"g", Type::kInt, false, 0, 0, 0});
  m->globals.push_back({"a", Type::kInt, true, 4, 1, 0});
  m->next_symbol = 2;
  auto f = std::make_unique<Function>();
  f->name = "main";
  f->return_type = Type::kInt;
  BasicBlock& entry = f->new_block("entry");
  f->entry = entry.id;
  f->calls.push_back({"sqrt", {0}, Builtin::kSqrt});
  std::vector<Instr>& code = entry.instrs;
  code.resize(6);
  const Opcode ops[] = {Opcode::kLoadGlobal, Opcode::kCall, Opcode::kAddrGlobal,
                        Opcode::kLoad,       Opcode::kBin,  Opcode::kRet};
  for (std::size_t i = 0; i < code.size(); ++i) {
    code[i].op = ops[i];
    code[i].dst = i + 1 < code.size() ? f->new_reg() : kNoReg;
  }
  code[0].symbol = 0;  // r0 <- g
  code[1].type = Type::kFloat;
  code[1].call = 0;    // r1 <- sqrt(r0)
  code[2].type = Type::kIntPtr;
  code[2].symbol = 1;  // r2 <- &a
  code[3].src0 = 2;    // r3 <- a[0]
  code[4].src0 = 0;    // r4 <- r0 + r3
  code[4].src1 = 3;
  code[5].src0 = 4;    // return r4
  mutate(*f, code);
  m->functions.push_back(std::move(f));
  return m;
}

enum Index { kLoadG, kSqrt, kAddrA, kLoadA, kSum, kRet };

TEST(OpcodeTable, VerifyReportsEveryShapeTheDecoderRejects) {
  const auto unchanged = make_module([](Function&, std::vector<Instr>&) {});
  EXPECT_EQ(verify(*unchanged), std::vector<std::string>{});
  EXPECT_TRUE(vm::DecodedProgram(*unchanged).ok());

  const struct {
    const char* problem;
    std::function<void(Function&, std::vector<Instr>&)> mutate;
  } cases[] = {
      {"main: block entry instr 4: src1 register missing",
       [](Function&, std::vector<Instr>& code) {
         code[kSum].src1 = kNoReg;
       }},
      {"main: block entry instr 3: dst register missing",
       [](Function&, std::vector<Instr>& code) {
         code[kLoadA].dst = kNoReg;
       }},
      {"main: block entry instr 1: dst register missing",
       [](Function&, std::vector<Instr>& code) {
         code[kSqrt].dst = kNoReg;
       }},
      {"main: block entry instr 0: symbol is not a global of the opcode's "
       "kind",
       [](Function&, std::vector<Instr>& code) {
         code[kLoadG].symbol = 1; // load.global of the array
       }},
      {"main: block entry instr 2: symbol is not a global of the opcode's "
       "kind",
       [](Function&, std::vector<Instr>& code) {
         code[kAddrA].symbol = 2; // a symbol that names no global
       }},
      {"main: block entry instr 3: segment register out of range",
       [](Function&, std::vector<Instr>& code) {
         code[kLoadA].rebased = true; // through no segment register
       }},
      {"main: block entry instr 3: segment register out of range",
       [](Function&, std::vector<Instr>& code) {
         code[kLoadA].rebased = true;
         code[kLoadA].seg = 6;
       }},
      {"main: block entry instr 1: wrong number of builtin arguments",
       [](Function& f, std::vector<Instr>&) {
         f.calls[0] = {"pow", {0}, Builtin::kPow};
       }},
  };
  for (const auto& c : cases) {
    const auto module = make_module(c.mutate);
    EXPECT_EQ(verify(*module), std::vector<std::string>{c.problem});
    EXPECT_FALSE(vm::DecodedProgram(*module).ok()) << c.problem;
  }
}

} // namespace
} // namespace cash::ir
