#include "passes/code_size.hpp"

namespace cash::passes {

CodeSize estimate_code_size(const ir::Module& module,
                            const LowerOptions& options) {
  CodeSize size;

  std::uint64_t app = 0;
  for (const auto& function : module.functions) {
    for (const auto& block : function->blocks) {
      for (const ir::Instr& instr : block->instrs) {
        // Average encoded size of the x86 instruction(s) it lowers to; a
        // call adds one push per argument.
        app += ir::op_info(instr.op).bytes;
        if (instr.op == ir::Opcode::kCall) {
          app += 2 * function->call_site(instr).args.size();
        }
        // Fat-pointer representation adds copy instructions wherever a
        // pointer value moves: 1 extra word for Cash, 2 for BCC (3 bytes
        // per extra word copied).
        if (ir::is_pointer(instr.type) && instr.moves_pointer()) {
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
