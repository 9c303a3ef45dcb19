#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hot_inline.hpp"
#include "ir/function.hpp"

namespace cash::ir {

// Structural sanity checks over a module. Returns a list of human-readable
// problems; empty means the module is well-formed. Run by the driver after
// IR generation and after every lowering pass. Functions and instructions
// are checked by function_problem and for_each_problem below, the checks
// the VM's decoder applies, so every module the decoder rejects is
// reported here.
std::vector<std::string> verify(const Module& module);
// The same for one function, without a module: global symbols go
// unchecked.
std::vector<std::string> verify(const Function& function);

// What a symbol id names, as the instruction check reads it.
enum class SymbolKind : std::uint8_t { kNone, kGlobalScalar, kGlobalArray };

// Fills `kinds` with the kind of each of `module`'s symbols, by SymbolId.
void symbol_kinds(const Module& module, std::vector<SymbolKind>& kinds);

// The first problem of `f` itself, or null. Its instructions can only be
// checked when there is none.
const char* function_problem(const Function& f) noexcept;

// Calls report(message) for each way `instr`, an instruction of `f`,
// breaks its row of CASH_IR_OPCODE_LIST. A message that begins with ':'
// follows the instruction's position; the others stand alone. A set
// register is checked whatever the row says. A builtin call's dst is
// required when the builtin returns a value, and its arity is its
// signature's. `symbols` (symbol_kinds) may be null: global symbols then go
// unchecked.
template <class Report>
CASH_HOT_INLINE inline void for_each_problem(
    const Function& f, const std::vector<SymbolKind>* symbols,
    const Instr& instr, Report&& report) {
  const OpInfo& row = op_info(instr.op);
  const auto in = [](std::int32_t i, std::size_t size) {
    return i >= 0 && static_cast<std::size_t>(i) < size;
  };
  const auto regs = static_cast<std::size_t>(std::max(f.next_reg, 0));
  const CallSite* site = row.call == Use::kRequired &&
                                 in(instr.call, f.calls.size())
                             ? &f.calls[static_cast<std::size_t>(instr.call)]
                             : nullptr;
  const BuiltinSignature* builtin =
      site != nullptr && site->builtin != Builtin::kNone
          ? &signature(site->builtin)
          : nullptr;
  const auto check_reg = [&](Reg r, Use use, const char* out_of_range,
                             const char* missing) {
    if (r != kNoReg && !in(r, regs)) {
      report(out_of_range);
    } else if (r == kNoReg && use == Use::kRequired) {
      report(missing);
    }
  };
  const bool returns = builtin != nullptr && builtin->result != Type::kVoid;
  check_reg(instr.dst, returns ? Use::kRequired : row.dst,
            ": dst register out of range", ": dst register missing");
  check_reg(instr.src0, row.src0, ": src0 register out of range",
            ": src0 register missing");
  check_reg(instr.src1, row.src1, ": src1 register out of range",
            ": src1 register missing");
  if (row.call == Use::kRequired) {
    if (site == nullptr) {
      report(": call site out of range");
    } else {
      for (Reg arg : site->args) {
        if (!in(arg, regs)) {
          report(": arg register out of range");
        }
      }
      if (builtin != nullptr && site->args.size() != builtin->arity) {
        report(": wrong number of builtin arguments");
      }
    }
  }
  if (row.target0 == Use::kRequired && !in(instr.target0, f.blocks.size())) {
    report(": branch target out of range");
  }
  if (row.target1 == Use::kRequired && !in(instr.target1, f.blocks.size())) {
    report(": branch target out of range");
  }
  if (row.slot != Use::kUnused) {
    if (!in(instr.slot, f.locals.size())) {
      report(": local slot out of range");
    } else if (row.slot == Use::kArraySlot &&
               !f.locals[static_cast<std::size_t>(instr.slot)].is_array) {
      report("addr.local of a non-array slot (scalars have no address)");
    }
  }
  if (symbols != nullptr && row.symbol != Use::kUnused) {
    const SymbolKind kind =
        in(instr.symbol, symbols->size())
            ? (*symbols)[static_cast<std::size_t>(instr.symbol)]
            : SymbolKind::kNone;
    if (row.symbol == Use::kScalarGlobal ? kind != SymbolKind::kGlobalScalar
                                         : kind == SymbolKind::kNone) {
      report(": symbol is not a global of the opcode's kind");
    }
  }
  if ((row.seg == Use::kRequired ||
       (row.seg == Use::kWhenRebased && instr.rebased)) &&
      !in(instr.seg, kSegRegCount)) {
    report(": segment register out of range");
  }
}

} // namespace cash::ir
