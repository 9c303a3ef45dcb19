#include "ir/printer.hpp"

#include <sstream>

namespace cash::ir {

namespace {
void print_reg(std::ostringstream& out, Reg r) {
  if (r == kNoReg) {
    out << "_";
  } else {
    out << "%r" << r;
  }
}
} // namespace

std::string to_text(const Instr& instr, const Function& function) {
  std::ostringstream out;
  out << to_string(instr.op);
  switch (instr.op) {
    case Opcode::kBin:
      out << '.' << to_string(instr.bin_op);
      break;
    case Opcode::kUn:
      out << '.' << to_string(instr.un_op);
      break;
    default:
      break;
  }
  out << ' ';
  if (instr.dst != kNoReg) {
    print_reg(out, instr.dst);
    out << " <- ";
  }
  switch (instr.op) {
    case Opcode::kConstInt:
      out << instr.int_imm;
      break;
    case Opcode::kConstFloat:
      out << instr.float_imm;
      break;
    case Opcode::kCall: {
      const CallSite& site = function.call_site(instr);
      out << site.callee << '(';
      for (std::size_t i = 0; i < site.args.size(); ++i) {
        if (i > 0) {
          out << ", ";
        }
        print_reg(out, site.args[i]);
      }
      out << ')';
      break;
    }
    case Opcode::kJump:
      out << "bb" << instr.target0;
      break;
    case Opcode::kBranch:
      print_reg(out, instr.src0);
      out << " ? bb" << instr.target0 << " : bb" << instr.target1;
      break;
    case Opcode::kLoadLocal:
    case Opcode::kStoreLocal:
    case Opcode::kAddrLocal:
      out << "slot" << instr.slot;
      if (instr.src0 != kNoReg) {
        out << ", ";
        print_reg(out, instr.src0);
      }
      break;
    case Opcode::kLoadGlobal:
    case Opcode::kStoreGlobal:
    case Opcode::kAddrGlobal:
      out << "sym" << instr.symbol;
      if (instr.src0 != kNoReg) {
        out << ", ";
        print_reg(out, instr.src0);
      }
      break;
    default:
      if (instr.src0 != kNoReg) {
        print_reg(out, instr.src0);
      }
      if (instr.src1 != kNoReg) {
        out << ", ";
        print_reg(out, instr.src1);
      }
      break;
  }
  if (instr.array_ref != kNoSymbol) {
    out << " !array:" << instr.array_ref;
  }
  if (instr.loop != kNoLoop) {
    out << " !loop:" << instr.loop;
  }
  if (instr.seg >= 0) {
    out << " !seg:" << static_cast<int>(instr.seg);
  }
  if (instr.rebased) {
    out << " !rebased";
  }
  if (instr.check_elided) {
    out << " !elided";
  }
  return out.str();
}

std::string to_text(const Function& function) {
  std::ostringstream out;
  out << "func " << function.name << '(';
  for (std::size_t i = 0; i < function.params.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << to_string(function.params[i].type) << ' ' << function.params[i].name;
  }
  out << ") -> " << to_string(function.return_type) << " {\n";
  for (const auto& block : function.blocks) {
    out << "bb" << block->id << ": ; " << block->name << '\n';
    for (const Instr& instr : block->instrs) {
      out << "  " << to_text(instr, function) << '\n';
    }
  }
  out << "}\n";
  return out.str();
}

std::string to_text(const Module& module) {
  std::ostringstream out;
  for (const GlobalVar& g : module.globals) {
    out << "global " << to_string(g.type) << ' ' << g.name;
    if (g.is_array) {
      out << '[' << g.elem_count << ']';
    }
    out << " ; sym" << g.symbol << '\n';
  }
  for (const auto& f : module.functions) {
    out << to_text(*f);
  }
  return out.str();
}

} // namespace cash::ir
