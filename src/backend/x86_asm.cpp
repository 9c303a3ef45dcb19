#include "backend/x86_asm.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>

namespace cash::backend {

namespace {

using ir::BinOp;
using ir::Function;
using ir::Instr;
using ir::Opcode;
using ir::Reg;
using ir::UnOp;

const char* seg_name(int seg) {
  switch (seg) {
    case 0: return "%cs";
    case 1: return "%ss";
    case 2: return "%ds";
    case 3: return "%es";
    case 4: return "%fs";
    case 5: return "%gs";
    default: return "%ds";
  }
}

// Frame layout: [ebp-4 .. ] virtual registers, then scalar local slots,
// then per-assigned-array segment-base spill slots.
class FunctionEmitter {
 public:
  FunctionEmitter(const Function& function, const AsmOptions& options)
      : func_(function), options_(options) {}

  std::string run() {
    assign_frame();
    prologue();
    for (const auto& block : func_.blocks) {
      out_ << ".L" << func_.name << "_bb" << block->id << ":";
      if (options_.comments && !block->name.empty()) {
        out_ << "                # " << block->name;
      }
      out_ << "\n";
      for (const Instr& instr : block->instrs) {
        emit(instr);
      }
    }
    return out_.str();
  }

 private:
  std::string reg_slot(Reg r) {
    return std::to_string(-4 * (r + 1)) + "(%ebp)";
  }
  std::string local_slot(int slot) {
    return std::to_string(-4 * (func_.next_reg + slot + 1)) + "(%ebp)";
  }
  std::string segbase_slot(int seg) {
    return std::to_string(-4 * (func_.next_reg +
                                static_cast<int>(func_.locals.size()) +
                                (seg - 1) + 1)) +
           "(%ebp)";
  }

  void assign_frame() {
    frame_bytes_ = 4 * (func_.next_reg +
                        static_cast<int>(func_.locals.size()) + 6);
  }

  void line(const std::string& text, const char* comment = nullptr) {
    out_ << "        " << text;
    if (options_.comments && comment != nullptr) {
      // pad to a fixed column
      for (std::size_t i = text.size(); i < 30; ++i) {
        out_ << ' ';
      }
      out_ << "# " << comment;
    }
    out_ << "\n";
  }

  void prologue() {
    out_ << func_.name << ":\n";
    if (options_.use_stack_segreg) {
      // Section 3.7's rewritten prologue: no PUSH, frame accesses through
      // DS explicitly, SS is free for array bound checking.
      line("subl    $4, %esp", "PUSH/POP-free prologue (Section 3.7)");
      line("movl    %ebp, %ds:(%esp)");
      line("movl    %esp, %ebp");
    } else {
      line("pushl   %ebp");
      line("movl    %esp, %ebp");
    }
    line("subl    $" + std::to_string(frame_bytes_) + ", %esp",
         "virtual registers + locals + segment-base spills");
    for (std::int8_t seg : func_.used_seg_regs) {
      // Save clobbered segment registers (Section 3.7).
      if (options_.use_stack_segreg) {
        line("subl    $4, %esp");
        line(std::string("movw    ") + seg_name(seg) + ", %ds:(%esp)",
             "save clobbered segment register");
      } else {
        line(std::string("pushw   ") + seg_name(seg),
             "save clobbered segment register");
      }
    }
  }

  void epilogue() {
    for (auto it = func_.used_seg_regs.rbegin();
         it != func_.used_seg_regs.rend(); ++it) {
      if (options_.use_stack_segreg) {
        line(std::string("movw    %ds:(%esp), ") + seg_name(*it),
             "restore segment register");
        line("addl    $4, %esp");
      } else {
        line(std::string("popw    ") + seg_name(*it),
             "restore segment register");
      }
    }
    line("leave");
    line("ret");
  }

  std::string mem_operand(const Instr& instr, const char* addr_reg) {
    if (instr.rebased) {
      return std::string(seg_name(instr.seg)) + ":(" + addr_reg + ")";
    }
    return std::string("(") + addr_reg + ")";
  }

  void emit_bin(const Instr& instr) {
    if (instr.type == ir::Type::kFloat) {
      // x87: load both operands, operate, store.
      line("flds    " + reg_slot(instr.src0));
      line("flds    " + reg_slot(instr.src1));
      switch (instr.bin_op) {
        case BinOp::kAdd: line("faddp"); break;
        case BinOp::kSub: line("fsubp"); break;
        case BinOp::kMul: line("fmulp"); break;
        case BinOp::kDiv: line("fdivp"); break;
        default:
          // comparisons: fcomip + setcc
          line("fcomip  %st(1), %st");
          line("fstp    %st(0)");
          line("setcc   %al", "condition from the comparison kind");
          line("movzbl  %al, %eax");
          line("movl    %eax, " + reg_slot(instr.dst));
          return;
      }
      line("fstps   " + reg_slot(instr.dst));
      return;
    }
    line("movl    " + reg_slot(instr.src0) + ", %eax");
    switch (instr.bin_op) {
      case BinOp::kAdd: line("addl    " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kSub: line("subl    " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kMul: line("imull   " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kDiv:
        line("cltd");
        line("idivl   " + reg_slot(instr.src1));
        break;
      case BinOp::kRem:
        line("cltd");
        line("idivl   " + reg_slot(instr.src1));
        line("movl    %edx, %eax");
        break;
      case BinOp::kAnd: line("andl    " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kOr:  line("orl     " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kXor: line("xorl    " + reg_slot(instr.src1) + ", %eax"); break;
      case BinOp::kShl:
        line("movl    " + reg_slot(instr.src1) + ", %ecx");
        line("shll    %cl, %eax");
        break;
      case BinOp::kShr:
        line("movl    " + reg_slot(instr.src1) + ", %ecx");
        line("sarl    %cl, %eax");
        break;
      case BinOp::kCmpEq:
      case BinOp::kCmpNe:
      case BinOp::kCmpLt:
      case BinOp::kCmpLe:
      case BinOp::kCmpGt:
      case BinOp::kCmpGe: {
        line("cmpl    " + reg_slot(instr.src1) + ", %eax");
        const char* cc = instr.bin_op == BinOp::kCmpEq   ? "sete"
                         : instr.bin_op == BinOp::kCmpNe ? "setne"
                         : instr.bin_op == BinOp::kCmpLt ? "setl"
                         : instr.bin_op == BinOp::kCmpLe ? "setle"
                         : instr.bin_op == BinOp::kCmpGt ? "setg"
                                                         : "setge";
        line(std::string(cc) + "    %al");
        line("movzbl  %al, %eax");
        break;
      }
    }
    line("movl    %eax, " + reg_slot(instr.dst));
  }

  void emit(const Instr& instr) {
    switch (instr.op) {
      case Opcode::kConstInt:
        line("movl    $" + std::to_string(instr.int_imm) + ", " +
             reg_slot(instr.dst));
        break;
      case Opcode::kConstFloat: {
        std::ostringstream imm;
        imm << "movl    $0x" << std::hex
            << std::bit_cast<std::uint32_t>(instr.float_imm) << ", "
            << reg_slot(instr.dst);
        line(imm.str(), "float immediate (bit pattern)");
        break;
      }
      case Opcode::kMove:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kBin:
        emit_bin(instr);
        break;
      case Opcode::kUn:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        switch (instr.un_op) {
          case UnOp::kNeg:        line("negl    %eax"); break;
          case UnOp::kBitNot:     line("notl    %eax"); break;
          case UnOp::kLogicalNot:
            line("testl   %eax, %eax");
            line("sete    %al");
            line("movzbl  %al, %eax");
            break;
          case UnOp::kIntToFloat:
            line("movl    %eax, " + reg_slot(instr.dst));
            line("fildl   " + reg_slot(instr.dst));
            line("fstps   " + reg_slot(instr.dst));
            return;
          case UnOp::kFloatToInt:
            line("movl    %eax, " + reg_slot(instr.dst));
            line("flds    " + reg_slot(instr.dst));
            line("fisttpl " + reg_slot(instr.dst));
            return;
        }
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kLoad:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        if (instr.rebased) {
          line("subl    " + segbase_slot(instr.seg) + ", %eax",
               "rebase to the segment (hoisted subl, Section 3.3)");
        }
        line("movl    " + mem_operand(instr, "%eax") + ", %eax",
             instr.rebased ? "segment-limit check happens here, for free"
                           : nullptr);
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kStore:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        if (instr.rebased) {
          line("subl    " + segbase_slot(instr.seg) + ", %eax",
               "rebase to the segment (hoisted subl, Section 3.3)");
        }
        line("movl    " + reg_slot(instr.src1) + ", %edx");
        line("movl    %edx, " + mem_operand(instr, "%eax"),
             instr.rebased ? "segment-limit check happens here, for free"
                           : nullptr);
        break;
      case Opcode::kLoadLocal:
        line("movl    " + local_slot(instr.slot) + ", %eax");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kStoreLocal:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("movl    %eax, " + local_slot(instr.slot));
        break;
      case Opcode::kLoadGlobal:
        line("movl    sym" + std::to_string(instr.symbol) + ", %eax");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kStoreGlobal:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("movl    %eax, sym" + std::to_string(instr.symbol));
        break;
      case Opcode::kAddrLocal:
        line("leal    " + local_slot(instr.slot) + ", %eax",
             "address of the local array (info structure precedes it)");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kAddrGlobal:
        line("leal    sym" + std::to_string(instr.symbol) + ", %eax");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kPtrAdd:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("addl    " + reg_slot(instr.src1) + ", %eax");
        line("movl    %eax, " + reg_slot(instr.dst));
        break;
      case Opcode::kCall: {
        // Arguments right to left, PUSH or the Section 3.7 rewriting.
        const ir::CallSite& site = func_.call_site(instr);
        for (auto it = site.args.rbegin(); it != site.args.rend(); ++it) {
          if (options_.use_stack_segreg) {
            line("subl    $4, %esp", "PUSH rewritten (Section 3.7)");
            line("movl    " + reg_slot(*it) + ", %ecx");
            line("movl    %ecx, %ds:(%esp)");
          } else {
            line("pushl   " + reg_slot(*it));
          }
        }
        line("call    " + site.callee);
        if (!site.args.empty()) {
          line("addl    $" + std::to_string(4 * site.args.size()) +
               ", %esp");
        }
        if (instr.dst != ir::kNoReg) {
          line("movl    %eax, " + reg_slot(instr.dst));
        }
        break;
      }
      case Opcode::kRet:
        if (instr.src0 != ir::kNoReg) {
          line("movl    " + reg_slot(instr.src0) + ", %eax");
        }
        epilogue();
        break;
      case Opcode::kJump:
        line("jmp     .L" + func_.name + "_bb" +
             std::to_string(instr.target0));
        break;
      case Opcode::kBranch:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("testl   %eax, %eax");
        line("jne     .L" + func_.name + "_bb" +
             std::to_string(instr.target0));
        line("jmp     .L" + func_.name + "_bb" +
             std::to_string(instr.target1));
        break;
      case Opcode::kSegLoad:
        // The Section 3.3 sequence: shadow pointer -> selector -> segment
        // register, plus stashing the base for the rebasing subl.
        line("movl    " + reg_slot(instr.src0) + ", %ecx",
             "shadow info-structure pointer");
        line(std::string("movw    8(%ecx), ") + seg_name(instr.seg),
             "load segment selector (4 cycles)");
        line("movl    0(%ecx), %eax", "array base for offset rebasing");
        line("movl    %eax, " + segbase_slot(instr.seg));
        break;
      case Opcode::kBoundCheckSw:
        // BCC's 6-instruction sequence (Section 1): two loads, two
        // compares, two conditional branches.
        line("movl    " + reg_slot(instr.src0) + ", %eax",
             "6-instruction software bound check:");
        line("movl    0(%ecx), %edx", "  load lower bound");
        line("movl    4(%ecx), %ebx", "  load upper bound");
        line("cmpl    %edx, %eax", "  compare with lower");
        line("jb      .Lbound_violation", "  branch if below");
        line("cmpl    %ebx, %eax", "  compare with upper");
        line("jae     .Lbound_violation", "  branch if not below");
        break;
      case Opcode::kBoundCheckBnd:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("boundl  %eax, 0(%ecx)", "x86 bound instruction (7 cycles)");
        break;
      case Opcode::kBoundCheckShadow:
        line("movl    " + reg_slot(instr.src0) + ", %eax");
        line("movl    %eax, (%edi)", "enqueue for the shadow processor");
        line("addl    $4, %edi");
        break;
    }
  }

  const Function& func_;
  AsmOptions options_;
  std::ostringstream out_;
  int frame_bytes_{0};
};

} // namespace

std::string emit_function(const ir::Function& function,
                          const AsmOptions& options) {
  return FunctionEmitter(function, options).run();
}

std::string emit_module(const ir::Module& module, const AsmOptions& options) {
  std::ostringstream out;
  out << "        .text\n";
  for (const ir::GlobalVar& g : module.globals) {
    out << "        .comm   sym" << g.symbol << ", "
        << (g.is_array ? std::uint64_t{g.elem_count} * 4 + 12 : 4)
        << (g.is_array ? "   # 3-word info structure + data\n" : "\n");
  }
  for (const auto& function : module.functions) {
    out << "\n" << emit_function(*function, options);
  }
  return out.str();
}

} // namespace cash::backend
