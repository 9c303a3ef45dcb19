#include "passes/code_size.hpp"

namespace cash::passes {

namespace {

// Average encoded size of the x86 instruction(s) an IR operation lowers to.
std::uint64_t base_instr_bytes(const ir::Function& function,
                               const ir::Instr& instr) {
  switch (instr.op) {
    case ir::Opcode::kConstInt:
    case ir::Opcode::kConstFloat:   return 5; // mov $imm, r
    case ir::Opcode::kMove:         return 2;
    case ir::Opcode::kBin:          return 3;
    case ir::Opcode::kUn:           return 3;
    case ir::Opcode::kLoad:
    case ir::Opcode::kStore:        return 4; // modrm + sib (+ seg prefix)
    case ir::Opcode::kLoadLocal:
    case ir::Opcode::kStoreLocal:   return 3; // disp8(%ebp)
    case ir::Opcode::kLoadGlobal:
    case ir::Opcode::kStoreGlobal:  return 6; // disp32
    case ir::Opcode::kAddrLocal:    return 3; // lea
    case ir::Opcode::kAddrGlobal:   return 5;
    case ir::Opcode::kPtrAdd:       return 3;
    case ir::Opcode::kCall: // the call and one push per argument
      return 5 + 2 * function.call_site(instr).args.size();
    case ir::Opcode::kRet:          return 3;
    case ir::Opcode::kJump:         return 2;
    case ir::Opcode::kBranch:       return 4; // cmp + jcc
    case ir::Opcode::kSegLoad:      return 9; // mov shadow, movw %seg, subl
    case ir::Opcode::kBoundCheckSw: return 18; // 6 instructions (Section 1)
    case ir::Opcode::kBoundCheckBnd: return 8; // lea + bound r, m
    case ir::Opcode::kBoundCheckShadow: return 6; // store to the check queue
  }
  return 3;
}

} // namespace

CodeSize estimate_code_size(const ir::Module& module,
                            const LowerOptions& options) {
  CodeSize size;

  std::uint64_t app = 0;
  for (const auto& function : module.functions) {
    for (const auto& block : function->blocks) {
      for (const ir::Instr& instr : block->instrs) {
        app += base_instr_bytes(*function, instr);
        // Fat-pointer representation adds copy instructions wherever a
        // pointer value moves: 1 extra word for Cash, 2 for BCC (3 bytes
        // per extra word copied).
        const bool moves_pointer =
            ir::is_pointer(instr.type) &&
            (instr.op == ir::Opcode::kMove ||
             instr.op == ir::Opcode::kLoadLocal ||
             instr.op == ir::Opcode::kStoreLocal ||
             instr.op == ir::Opcode::kLoadGlobal ||
             instr.op == ir::Opcode::kStoreGlobal ||
             instr.op == ir::Opcode::kCall);
        if (moves_pointer) {
          if (options.mode == CheckMode::kBcc) {
            app += 6;
          } else if (options.mode == CheckMode::kCash) {
            app += 3;
          }
        }
      }
    }
    if (options.mode == CheckMode::kCash) {
      // Segment set-up/tear-down code in prologue/epilogue per local array
      // (allocate LDT entry, fill info structure, release), plus global
      // array initialisation in the start-up stub.
      for (const ir::LocalSlot& slot : function->locals) {
        if (slot.is_array) {
          app += 48;
        }
      }
      // Save/restore of clobbered segment registers.
      app += 8 * function->used_seg_regs.size();
    }
    if (options.mode == CheckMode::kBcc) {
      // BCC registers every local array with its object table.
      for (const ir::LocalSlot& slot : function->locals) {
        if (slot.is_array) {
          app += 32;
        }
      }
    }
  }
  // Start-up initialisation of global arrays: Cash sets up a segment per
  // array; BCC registers each with its object table.
  std::uint64_t global_arrays = 0;
  for (const ir::GlobalVar& g : module.globals) {
    global_arrays += g.is_array ? 1 : 0;
  }
  if (options.mode == CheckMode::kCash) {
    app += 48 * global_arrays;
  } else if (options.mode == CheckMode::kBcc) {
    app += 32 * global_arrays;
  }

  size.app_bytes = app;
  switch (options.mode) {
    case CheckMode::kNoCheck:
    case CheckMode::kEfence:
    case CheckMode::kBoundInsn:
    case CheckMode::kShadow:
      size.library_bytes = kLibraryBytesGcc;
      break;
    case CheckMode::kCash:
      size.library_bytes = kLibraryBytesCash;
      break;
    case CheckMode::kBcc:
      size.library_bytes = kLibraryBytesBcc;
      break;
  }
  size.total_bytes = size.app_bytes + size.library_bytes;
  return size;
}

} // namespace cash::passes
