#include "vm/machine.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "vm/decode.hpp"
#include "vm/machine_impl.hpp"

namespace cash::vm {

namespace {

using ir::BinOp;
using ir::Instr;
using ir::Opcode;
using ir::UnOp;
using x86seg::SegReg;

// `table[sym]` from one of Impl's flat global tables. A zero entry or an
// index out of range means the symbol names no global of that kind. Only
// malformed IR meets one (the decoder rejects it, so the micro-op engine
// never does); the throw ends the run in a simulator-limit error
// (Impl::execute).
std::uint32_t global_entry(const std::vector<std::uint32_t>& table,
                           ir::SymbolId sym) {
  if (sym < 0 || static_cast<std::size_t>(sym) >= table.size() ||
      table[static_cast<std::size_t>(sym)] == 0) {
    throw std::out_of_range("no global for symbol " + std::to_string(sym));
  }
  return table[static_cast<std::size_t>(sym)];
}

} // namespace

Machine::Machine(const ir::Module& module, MachineConfig config,
                 const DecodedProgram* predecoded)
    : impl_(std::make_unique<Impl>(module, config)) {
  // The decoded image shares the module's function order, which the call
  // stack's frames and profile are indexed by.
  if (predecoded != nullptr && predecoded->ok() && config.enable_predecode &&
      &predecoded->module() == &module) {
    impl_->decoded = predecoded;
  }
}

Machine::~Machine() = default;

x86seg::SegmentationUnit& Machine::segmentation() noexcept {
  return impl_->seg_unit;
}
runtime::SegmentManager& Machine::segment_manager() noexcept {
  return impl_->segments;
}
mmu::Mmu& Machine::mmu() noexcept { return impl_->mmu; }

kernel::Pid Machine::pid() const noexcept { return impl_->pid; }

kernel::KernelSim& Machine::kernel() noexcept { return impl_->kernel; }

RunResult Machine::run() {
  const ir::Function* main_fn = impl_->module->find_function("main");
  if (main_fn == nullptr) {
    RunResult r;
    r.error = "program has no main()";
    return r;
  }
  return impl_->execute(main_fn);
}

void Machine::reseed(std::uint32_t seed) { impl_->rng_state = seed; }

void Machine::arm_faults(const faultinject::FaultPlan& plan,
                         std::uint32_t seed) {
  // In-place assignment: the components hold a stable pointer to the
  // injector, so swapping its state re-arms every site at once.
  impl_->injector = faultinject::FaultInjector(plan, seed);
  impl_->config.fault_plan = plan;
}

void Machine::prepare() { impl_->initialize_program(); }

RunResult Machine::run_function(const std::string& name) {
  const ir::Function* fn = impl_->module->find_function(name);
  if (fn == nullptr) {
    RunResult r;
    r.error = "no such function: " + name;
    return r;
  }
  return impl_->execute(fn);
}

RunResult Machine::Impl::execute_impl(const ir::Function* entry,
                                      std::string& output) {
  if (decoded != nullptr) {
    return execute_decoded(*this, entry, output);
  }
  return execute_interpreter(entry, output);
}

Status Machine::Impl::load_segment(SegReg seg, Value ptr,
                                   std::uint64_t& cost) {
  std::uint32_t selector_word = 0;
  if (ptr.info != 0) {
    Result<std::uint32_t> sel =
        mmu.read32_linear(ptr.info + runtime::kInfoSelectorOff);
    if (sel.ok()) {
      selector_word = sel.value();
    }
  }
  std::uint32_t selector_raw = selector_word & 0xFFFFU;
  if (selector_word == 0) {
    // Unchecked object: use the global segment (Section 3.4).
    selector_raw = kernel::flat_user_data_selector().raw();
  } else if (x86seg::Selector(static_cast<std::uint16_t>(selector_raw))
                 .is_local()) {
    // Multi-LDT extension: the segment may live in another LDT — repoint
    // the LDTR first (282-cycle slim syscall).
    const kernel::LdtId target_ldt = selector_word >> 16;
    if (target_ldt != kernel.active_ldt(pid)) {
      Status switched = kernel.switch_ldt(pid, target_ldt);
      if (!switched.ok()) {
        return switched;
      }
      seg_unit.set_ldt(kernel.ldt(pid));
      cost += costs::kLdtSwitch;
    }
  }
  Status status = seg_unit.load(
      seg, x86seg::Selector(static_cast<std::uint16_t>(selector_raw)));
  if (status.ok()) {
    // mov shadow + movw %seg (4 cy) + subl base: the per-array-use cost.
    cost += costs::kSegRegLoad + 2;
  }
  return status;
}

RunResult Machine::Impl::execute_interpreter(const ir::Function* entry,
                                             std::string& output) {
  RunResult result;
  const FrameCharge opening = begin_run(entry, result);
  if (!result.error.empty()) {
    return result;
  }
  std::uint64_t cycles = opening.runtime;
  std::uint64_t checking_cy = 0; // bound-check work
  std::uint64_t shadow_cy = 0;   // the shadow processor's workload
  std::uint64_t runtime_cy = opening.runtime; // set-up/teardown/bookkeeping
  RunCounters& ctr = result.counters;
  const std::uint64_t ptr_penalty = ptr_copy_penalty();

  // The top frame, cached in locals; load_top() re-derives them after
  // every push and pop (the stack's arenas move when they grow).
  const ir::Function* fn = nullptr;
  ir::BlockId cur_block = ir::kNoBlock;
  std::size_t ip = 0;
  Value* regs = nullptr;
  Value* slots = nullptr;
  Value* local_arrays = nullptr;
  const auto load_top = [&] {
    const CallFrame& top = stack.top();
    fn = top.fn;
    cur_block = top.block;
    ip = top.pos;
    regs = stack.regs(top);
    slots = frame_slots(regs, *fn);
    local_arrays = frame_arrays(regs, *fn);
  };

  auto fail = [&](Fault fault, const Instr* instr) -> void {
    std::ostringstream ctx;
    ctx << fault.detail << " [in " << fn->name;
    if (instr != nullptr && instr->loc.line > 0) {
      ctx << " at line " << instr->loc.line;
    }
    ctx << "]";
    fault.detail = ctx.str();
    result.fault = std::move(fault);
  };

  load_top();

  while (true) {
    const ir::BasicBlock& block = fn->block(cur_block);
    if (ip >= block.instrs.size()) {
      result.error = "fell off the end of block " + block.name + " in " +
                     fn->name;
      break;
    }
    const Instr& instr = block.instrs[ip];

    if (++ctr.instructions > config.max_instructions) {
      result.error = "instruction budget exceeded (possible infinite loop)";
      break;
    }

    auto reg_of = [&](ir::Reg r) -> Value& {
      return regs[static_cast<std::size_t>(r)];
    };

    bool advance = true;
    switch (instr.op) {
      case Opcode::kConstInt:
        reg_of(instr.dst) = from_int(instr.int_imm);
        cycles += costs::kRegisterOp;
        break;
      case Opcode::kConstFloat:
        reg_of(instr.dst) = from_float(instr.float_imm);
        cycles += costs::kRegisterOp;
        break;
      case Opcode::kMove:
        reg_of(instr.dst) = reg_of(instr.src0);
        cycles += costs::kRegisterOp;
        if (ir::is_pointer(instr.type)) {
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        break;
      case Opcode::kBin: {
        const Value a = reg_of(instr.src0);
        const Value b = reg_of(instr.src1);
        Value out;
        std::uint64_t cost = costs::kAluOp;
        if (instr.type == ir::Type::kFloat) {
          const float x = as_float(a);
          const float y = as_float(b);
          switch (instr.bin_op) {
            case BinOp::kAdd: out = from_float(x + y); break;
            case BinOp::kSub: out = from_float(x - y); break;
            case BinOp::kMul: out = from_float(x * y); cost = costs::kMulOp; break;
            case BinOp::kDiv: out = from_float(x / y); cost = costs::kDivOp; break;
            case BinOp::kCmpEq: out = from_int(x == y); break;
            case BinOp::kCmpNe: out = from_int(x != y); break;
            case BinOp::kCmpLt: out = from_int(x < y); break;
            case BinOp::kCmpLe: out = from_int(x <= y); break;
            case BinOp::kCmpGt: out = from_int(x > y); break;
            case BinOp::kCmpGe: out = from_int(x >= y); break;
            default:
              result.error = "float operand to integer-only operator";
              break;
          }
        } else {
          const std::int32_t x = as_int(a);
          const std::int32_t y = as_int(b);
          // Two's-complement wraparound, computed in unsigned space so the
          // host never sees signed overflow.
          const std::uint32_t ux = a.bits;
          const std::uint32_t uy = b.bits;
          switch (instr.bin_op) {
            case BinOp::kAdd:
              out = Value{ux + uy, 0};
              break;
            case BinOp::kSub:
              out = Value{ux - uy, 0};
              break;
            case BinOp::kMul:
              out = Value{ux * uy, 0};
              cost = costs::kMulOp;
              break;
            case BinOp::kDiv:
            case BinOp::kRem:
              if (y == 0 ||
                  (x == std::numeric_limits<std::int32_t>::min() && y == -1)) {
                // x86 idiv raises #DE on both zero divisors and the
                // INT_MIN/-1 quotient overflow.
                fail(Fault{FaultKind::kInvalidOpcode, 0, 0,
                           y == 0 ? "integer division by zero"
                                  : "integer division overflow"},
                     &instr);
              } else {
                out = from_int(instr.bin_op == BinOp::kDiv ? x / y : x % y);
              }
              cost = costs::kDivOp;
              break;
            case BinOp::kAnd: out = from_int(x & y); break;
            case BinOp::kOr:  out = from_int(x | y); break;
            case BinOp::kXor: out = from_int(x ^ y); break;
            case BinOp::kShl:
              out = Value{ux << (uy & 31), 0};
              break;
            case BinOp::kShr:
              // Arithmetic right shift, as C++20 defines for signed types.
              out = from_int(static_cast<std::int32_t>(x >> (y & 31)));
              break;
            case BinOp::kCmpEq: out = from_int(x == y); break;
            case BinOp::kCmpNe: out = from_int(x != y); break;
            case BinOp::kCmpLt: out = from_int(x < y); break;
            case BinOp::kCmpLe: out = from_int(x <= y); break;
            case BinOp::kCmpGt: out = from_int(x > y); break;
            case BinOp::kCmpGe: out = from_int(x >= y); break;
          }
        }
        reg_of(instr.dst) = out;
        cycles += cost;
        break;
      }
      case Opcode::kUn: {
        const Value a = reg_of(instr.src0);
        Value out;
        switch (instr.un_op) {
          case UnOp::kNeg:
            out = instr.type == ir::Type::kFloat ? from_float(-as_float(a))
                                                 : from_int(-as_int(a));
            break;
          case UnOp::kLogicalNot: out = from_int(as_int(a) == 0); break;
          case UnOp::kBitNot:     out = from_int(~as_int(a)); break;
          case UnOp::kIntToFloat:
            out = from_float(static_cast<float>(as_int(a)));
            break;
          case UnOp::kFloatToInt:
            out = from_int(static_cast<std::int32_t>(as_float(a)));
            break;
        }
        reg_of(instr.dst) = out;
        cycles += costs::kAluOp;
        break;
      }
      case Opcode::kLoad:
      case Opcode::kStore: {
        const bool is_store = instr.op == Opcode::kStore;
        const Value addr = reg_of(instr.src0);
        SegReg seg = SegReg::kDs;
        std::uint32_t offset = addr.bits;
        if (instr.rebased) {
          seg = static_cast<SegReg>(instr.seg);
          const x86seg::SegmentRegister& sr = seg_unit.reg(seg);
          if (!sr.valid) {
            fail(Fault{FaultKind::kGeneralProtection, addr.bits, 0,
                       "rebased access through unloaded segment register"},
                 &instr);
            break;
          }
          // The hoisted `subl base` of Section 3.3.
          offset = addr.bits - sr.cached.base();
          ++ctr.hw_checked_accesses;
        }
        cycles += costs::kLoadStore;
        if (is_store) {
          Status status = mmu.write32(seg, offset, reg_of(instr.src1).bits);
          if (!status.ok()) {
            fail(status.fault(), &instr);
            break;
          }
          if (ir::is_pointer(instr.type)) {
            const std::uint32_t linear =
                instr.rebased ? seg_unit.reg(seg).cached.base() + offset
                              : offset;
            mem_ptr_info[linear] = reg_of(instr.src1).info;
            cycles += ptr_penalty;
            runtime_cy += ptr_penalty;
            ctr.ptr_word_copies += ptr_penalty;
          }
        } else {
          Result<std::uint32_t> loaded = mmu.read32(seg, offset);
          if (!loaded.ok()) {
            fail(loaded.fault(), &instr);
            break;
          }
          std::uint32_t info = 0;
          if (ir::is_pointer(instr.type)) {
            const std::uint32_t linear =
                instr.rebased ? seg_unit.reg(seg).cached.base() + offset
                              : offset;
            const auto it = mem_ptr_info.find(linear);
            info = it != mem_ptr_info.end() ? it->second : 0;
            cycles += ptr_penalty;
            runtime_cy += ptr_penalty;
            ctr.ptr_word_copies += ptr_penalty;
          }
          reg_of(instr.dst) = Value{loaded.value(), info};
        }
        break;
      }
      case Opcode::kLoadLocal:
        reg_of(instr.dst) = slots[static_cast<std::size_t>(instr.slot)];
        cycles += costs::kRegisterOp;
        if (ir::is_pointer(instr.type)) {
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        break;
      case Opcode::kStoreLocal:
        slots[static_cast<std::size_t>(instr.slot)] = reg_of(instr.src0);
        cycles += costs::kRegisterOp;
        if (ir::is_pointer(instr.type)) {
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        break;
      case Opcode::kLoadGlobal: {
        const std::uint32_t addr =
            global_entry(flat_global_scalar, instr.symbol);
        Result<std::uint32_t> loaded = mmu.read32_linear(addr);
        if (!loaded.ok()) {
          fail(loaded.fault(), &instr);
          break;
        }
        std::uint32_t info = 0;
        if (ir::is_pointer(instr.type)) {
          const auto it = mem_ptr_info.find(addr);
          info = it != mem_ptr_info.end() ? it->second : 0;
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        reg_of(instr.dst) = Value{loaded.value(), info};
        cycles += costs::kLoadStore;
        break;
      }
      case Opcode::kStoreGlobal: {
        const std::uint32_t addr =
            global_entry(flat_global_scalar, instr.symbol);
        Status status = mmu.write32_linear(addr, reg_of(instr.src0).bits);
        if (!status.ok()) {
          fail(status.fault(), &instr);
          break;
        }
        if (ir::is_pointer(instr.type)) {
          mem_ptr_info[addr] = reg_of(instr.src0).info;
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        cycles += costs::kLoadStore;
        break;
      }
      case Opcode::kAddrLocal: {
        reg_of(instr.dst) =
            local_arrays[static_cast<std::size_t>(instr.slot)];
        // lea; free when it is lowering-inserted set-up (its cost is part
        // of the segment-load charge).
        cycles += instr.synthetic ? 0 : costs::kAluOp;
        break;
      }
      case Opcode::kAddrGlobal: {
        const std::uint32_t data =
            global_entry(flat_global_data, instr.symbol);
        reg_of(instr.dst) = Value{
            data, flat_global_info[static_cast<std::size_t>(instr.symbol)]};
        cycles += instr.synthetic ? 0 : costs::kAluOp;
        break;
      }
      case Opcode::kPtrAdd: {
        const Value base = reg_of(instr.src0);
        const Value off = reg_of(instr.src1);
        reg_of(instr.dst) =
            Value{base.bits + off.bits, base.info};
        cycles += costs::kRegisterOp; // folds into the addressing mode
        break;
      }
      case Opcode::kJump:
        cur_block = instr.target0;
        ip = 0;
        advance = false;
        cycles += costs::kBranch;
        break;
      case Opcode::kBranch:
        cur_block = as_int(reg_of(instr.src0)) != 0 ? instr.target0
                                                    : instr.target1;
        ip = 0;
        advance = false;
        cycles += costs::kBranch;
        break;
      case Opcode::kSegLoad: {
        std::uint64_t cost = 0;
        const Status status = load_segment(static_cast<SegReg>(instr.seg),
                                           reg_of(instr.src0), cost);
        cycles += cost;
        checking_cy += cost;
        if (!status.ok()) {
          fail(status.fault(), &instr);
          break;
        }
        ++ctr.seg_reg_loads;
        break;
      }
      case Opcode::kBoundCheckShadow:
      case Opcode::kBoundCheckSw:
      case Opcode::kBoundCheckBnd: {
        const bool interval = instr.src1 != ir::kNoReg;
        const std::uint64_t extra = interval ? costs::kIntervalCheckExtra : 0;
        std::uint64_t check_cost = costs::kSoftwareBoundCheck + extra;
        const char* what = "software check";
        if (instr.op == Opcode::kBoundCheckShadow) {
          // Main CPU: one store into the address queue (two for the
          // interval form). Shadow CPU: re-derive the address context and
          // run the 6-instruction check (Patil & Fischer's derived program).
          shadow_cy += 2 + check_cost;
          check_cost = interval ? 2 : 1;
          what = "shadow-processor check";
        } else if (instr.op == Opcode::kBoundCheckBnd) {
          check_cost = costs::kBoundInstruction + extra;
          what = "bound instruction";
        }
        cycles += check_cost;
        checking_cy += check_cost;
        ++ctr.sw_checks;
        const Value addr = reg_of(instr.src0);
        const Value hi = interval ? reg_of(instr.src1) : addr;
        // Interval form: an empty range (lo > hi, the zero-trip loop's
        // hoisted check) passes unconditionally.
        if (addr.info != 0 && addr.bits <= hi.bits) {
          Result<std::uint32_t> lower =
              mmu.read32_linear(addr.info + runtime::kInfoLowerOff);
          Result<std::uint32_t> upper =
              mmu.read32_linear(addr.info + runtime::kInfoUpperOff);
          if (lower.ok() && upper.ok() &&
              (addr.bits < lower.value() ||
               hi.bits + 4 > upper.value())) {
            std::ostringstream detail;
            detail << what << ": ";
            if (interval) {
              detail << "range [0x" << std::hex << addr.bits << ", 0x"
                     << hi.bits << "]";
            } else {
              detail << "address 0x" << std::hex << addr.bits;
            }
            detail << " outside [0x" << lower.value() << ", 0x"
                   << upper.value() << ")";
            fail(Fault{FaultKind::kBoundRange, addr.bits, 0, detail.str()},
                 &instr);
          }
        }
        break;
      }
      case Opcode::kCall: {
        const std::string& callee = instr.callee;
        const ir::Reg a0 = instr.args.empty() ? ir::kNoReg : instr.args[0];
        const std::uint32_t a0_bits = a0 == ir::kNoReg ? 0 : reg_of(a0).bits;
        ++ctr.calls;

        const auto target_it = call_targets.find(&instr);
        const CallTarget target = target_it != call_targets.end()
                                      ? target_it->second
                                      : resolve_call(callee);

        // --- builtins ---
        if (target.builtin == Builtin::kMalloc) {
          runtime::CashHeap::Object obj = heap.allocate(a0_bits);
          cycles += obj.cycles;
          runtime_cy += obj.cycles;
          ++ctr.malloc_calls;
          if (obj.data == 0) {
            fail(Fault{FaultKind::kResourceExhausted, 0, 0,
                       "simulated heap exhausted: malloc(" +
                           std::to_string(a0_bits) + ")"},
                 &instr);
            break;
          }
          reg_of(instr.dst) = Value{obj.data, obj.info};
        } else if (target.builtin == Builtin::kFree) {
          const std::uint64_t released = heap.release(a0_bits);
          cycles += released;
          runtime_cy += released;
        } else if (target.builtin != Builtin::kNone) {
          run_builtin(target.builtin, regs, instr.dst, a0,
                      instr.args.size() > 1 ? instr.args[1] : ir::kNoReg,
                      output, rng_state);
          cycles += builtin_cycles(target.builtin);
        } else {
          // --- user function ---
          if (target.fn_index < 0) {
            result.error = "call to unknown function " + callee;
            break;
          }
          cycles += costs::kCallRet;
          stack.top().block = cur_block;
          stack.top().pos = static_cast<std::uint32_t>(ip + 1);
          const FrameCharge charge =
              stack.push(*this, static_cast<std::uint32_t>(target.fn_index),
                         instr.dst, instr.args, cycles);
          charge.book(cycles, runtime_cy, ctr);
          if (charge.overflow) {
            result.error = "stack overflow calling " + callee;
            break;
          }
          load_top();
          advance = false;
        }
        break;
      }
      case Opcode::kRet: {
        Value value;
        if (instr.src0 != ir::kNoReg) {
          value = reg_of(instr.src0);
        }
        cycles += costs::kCallRet;
        stack.pop(*this, value, cycles).book(cycles, runtime_cy, ctr);
        if (!stack.empty()) {
          load_top();
        }
        advance = false;
        break;
      }
    }

    if (result.fault.has_value() || !result.error.empty() || stack.empty()) {
      break;
    }
    if (advance) {
      ++ip;
    }
  }

  finish_run(result, cycles, checking_cy, shadow_cy, runtime_cy);
  return result;
}

} // namespace cash::vm
