#include "vm/machine.hpp"

#include <cmath>
#include <limits>
#include <cstdio>
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
  if (predecoded != nullptr && predecoded->ok() && config.enable_predecode) {
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

RunResult Machine::Impl::execute_impl(const ir::Function* entry) {
  if (decoded != nullptr) {
    return execute_decoded(*this, entry);
  }
  return execute_interpreter(entry);
}

RunResult Machine::Impl::execute_interpreter(const ir::Function* entry) {
  RunResult result;
  initialize_program();
  std::uint64_t cycles = init_cycles;
  std::uint64_t checking_cy = 0;        // bound-check work
  std::uint64_t shadow_cy = 0;          // the shadow processor's workload
  std::uint64_t runtime_cy = init_cycles; // set-up/teardown/bookkeeping
  init_cycles = 0; // charged once, to the first run
  RunCounters& ctr = result.counters;

  const std::uint64_t ptr_penalty = ptr_copy_penalty();
  std::vector<Frame> frames;
  Value return_value;

  // Per-function self-cycle attribution, updated only at call boundaries
  // (zero per-instruction cost).
  std::unordered_map<const ir::Function*, FunctionProfile> profile;
  const ir::Function* profiled_fn = nullptr;
  std::uint64_t span_start = cycles;
  auto account_span = [&](const ir::Function* next) {
    if (profiled_fn != nullptr) {
      profile[profiled_fn].self_cycles += cycles - span_start;
    }
    span_start = cycles;
    profiled_fn = next;
  };

  auto fail = [&](Fault fault, const Frame& frame,
                  const Instr* instr) -> void {
    std::ostringstream ctx;
    ctx << fault.detail << " [in " << frame.func->name;
    if (instr != nullptr && instr->loc.line > 0) {
      ctx << " at line " << instr->loc.line;
    }
    ctx << "]";
    fault.detail = ctx.str();
    result.fault = std::move(fault);
  };

  // Pushes a frame for `fn`; returns false on stack overflow.
  auto push_frame = [&](const ir::Function* fn, ir::Reg ret_dst,
                        const std::vector<Value>& args) -> bool {
    Frame frame;
    frame.func = fn;
    frame.regs.resize(static_cast<std::size_t>(fn->next_reg));
    frame.slots.resize(fn->locals.size());
    frame.block = fn->entry;
    frame.ip = 0;
    frame.ret_dst = ret_dst;
    frame.saved_sp = sp;
    frame.array_data.assign(fn->locals.size(), 0);
    frame.array_info.assign(fn->locals.size(), 0);

    for (std::size_t i = 0; i < fn->params.size() && i < args.size(); ++i) {
      frame.slots[static_cast<std::size_t>(fn->params[i].slot)] = args[i];
      if (ir::is_pointer(fn->params[i].type)) {
        cycles += ptr_penalty;
        runtime_cy += ptr_penalty;
        ctr.ptr_word_copies += ptr_penalty;
      }
    }

    // Function prologue: stack space + segment set-up for local arrays.
    for (std::size_t i = 0; i < fn->locals.size(); ++i) {
      const ir::LocalSlot& slot = fn->locals[i];
      if (!slot.is_array) {
        continue;
      }
      const std::uint32_t size = slot.elem_count * ir::kWordSize;
      std::uint32_t base = align_down(sp - (runtime::kInfoBytes + size), 8);
      if (base < kStackLimit) {
        return false;
      }
      sp = base;
      const std::uint32_t info = base;
      const std::uint32_t data = base + runtime::kInfoBytes;
      pages.map_range(info, runtime::kInfoBytes + size);
      frame.array_data[i] = data;
      if (config.mode == passes::CheckMode::kCash ||
          config.mode == passes::CheckMode::kBcc ||
          config.mode == passes::CheckMode::kBoundInsn ||
          config.mode == passes::CheckMode::kShadow) {
        const std::uint64_t setup = arrays.setup(info, data, size);
        cycles += setup;
        runtime_cy += setup;
        frame.array_info[i] = info;
      }
    }

    // Save clobbered segment registers (Section 3.7).
    for (std::int8_t reg : fn->used_seg_regs) {
      const SegReg seg = static_cast<SegReg>(reg);
      frame.saved_segs.emplace_back(seg, seg_unit.reg(seg));
      cycles += 1;
      runtime_cy += 1;
    }
    frames.push_back(std::move(frame));
    account_span(fn);
    ++profile[fn].calls;
    return true;
  };

  // Pops the top frame: epilogue (segment teardown + register restore).
  auto pop_frame = [&]() {
    Frame& frame = frames.back();
    for (std::size_t i = 0; i < frame.array_info.size(); ++i) {
      if (frame.array_info[i] != 0) {
        const std::uint64_t teardown = arrays.teardown(frame.array_info[i]);
        cycles += teardown;
        runtime_cy += teardown;
      }
    }
    for (auto it = frame.saved_segs.rbegin(); it != frame.saved_segs.rend();
         ++it) {
      seg_unit.restore(it->first, it->second);
      cycles += 1;
      runtime_cy += 1;
    }
    sp = frame.saved_sp;
    frames.pop_back();
    account_span(frames.empty() ? nullptr : frames.back().func);
  };

  if (!push_frame(entry, ir::kNoReg, {})) {
    result.error = "stack overflow at program start";
    return result;
  }

  while (!frames.empty()) {
    Frame& frame = frames.back();
    const ir::BasicBlock& block =
        frame.func->block(frame.block);
    if (frame.ip >= block.instrs.size()) {
      result.error = "fell off the end of block " + block.name + " in " +
                     frame.func->name;
      break;
    }
    const Instr& instr = block.instrs[frame.ip];

    if (++ctr.instructions > config.max_instructions) {
      result.error = "instruction budget exceeded (possible infinite loop)";
      break;
    }

    auto reg_of = [&](ir::Reg r) -> Value& {
      return frame.regs[static_cast<std::size_t>(r)];
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
                     frame, &instr);
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
                 frame, &instr);
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
            fail(status.fault(), frame, &instr);
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
            fail(loaded.fault(), frame, &instr);
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
        reg_of(instr.dst) = frame.slots[static_cast<std::size_t>(instr.slot)];
        cycles += costs::kRegisterOp;
        if (ir::is_pointer(instr.type)) {
          cycles += ptr_penalty;
          runtime_cy += ptr_penalty;
          ctr.ptr_word_copies += ptr_penalty;
        }
        break;
      case Opcode::kStoreLocal:
        frame.slots[static_cast<std::size_t>(instr.slot)] =
            reg_of(instr.src0);
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
          fail(loaded.fault(), frame, &instr);
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
          fail(status.fault(), frame, &instr);
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
        const std::size_t slot = static_cast<std::size_t>(instr.slot);
        reg_of(instr.dst) =
            Value{frame.array_data[slot], frame.array_info[slot]};
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
        frame.block = instr.target0;
        frame.ip = 0;
        advance = false;
        cycles += costs::kBranch;
        break;
      case Opcode::kBranch:
        frame.block = as_int(reg_of(instr.src0)) != 0 ? instr.target0
                                                      : instr.target1;
        frame.ip = 0;
        advance = false;
        cycles += costs::kBranch;
        break;
      case Opcode::kSegLoad: {
        const Value ptr = reg_of(instr.src0);
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
        } else if (x86seg::Selector(
                       static_cast<std::uint16_t>(selector_raw))
                       .is_local()) {
          // Multi-LDT extension: the segment may live in another LDT —
          // repoint the LDTR first (282-cycle slim syscall).
          const kernel::LdtId target_ldt = selector_word >> 16;
          if (target_ldt != kernel.active_ldt(pid)) {
            Status switched = kernel.switch_ldt(pid, target_ldt);
            if (!switched.ok()) {
              fail(switched.fault(), frame, &instr);
              break;
            }
            seg_unit.set_ldt(kernel.ldt(pid));
            cycles += costs::kLdtSwitch;
            checking_cy += costs::kLdtSwitch;
          }
        }
        Status status = seg_unit.load(
            static_cast<SegReg>(instr.seg),
            x86seg::Selector(static_cast<std::uint16_t>(selector_raw)));
        if (!status.ok()) {
          fail(status.fault(), frame, &instr);
          break;
        }
        // mov shadow + movw %seg (4 cy) + subl base: the per-array-use cost.
        cycles += costs::kSegRegLoad + 2;
        checking_cy += costs::kSegRegLoad + 2;
        ++ctr.seg_reg_loads;
        break;
      }
      case Opcode::kBoundCheckShadow: {
        // Main CPU: one store into the address queue (two for the interval
        // form). Shadow CPU: re-derive the address context and run the
        // 6-instruction check (Patil & Fischer's derived program).
        const bool interval = instr.src1 != ir::kNoReg;
        cycles += interval ? 2 : 1;
        checking_cy += interval ? 2 : 1;
        shadow_cy += 2 + costs::kSoftwareBoundCheck +
                     (interval ? costs::kIntervalCheckExtra : 0);
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
            detail << "shadow-processor check: ";
            if (interval) {
              detail << "range [0x" << std::hex << addr.bits << ", 0x"
                     << hi.bits << "]";
            } else {
              detail << "address 0x" << std::hex << addr.bits;
            }
            detail << " outside [0x" << lower.value() << ", 0x"
                   << upper.value() << ")";
            fail(Fault{FaultKind::kBoundRange, addr.bits, 0, detail.str()},
                 frame, &instr);
          }
        }
        break;
      }
      case Opcode::kBoundCheckSw:
      case Opcode::kBoundCheckBnd: {
        const bool is_bound_insn = instr.op == Opcode::kBoundCheckBnd;
        const bool interval = instr.src1 != ir::kNoReg;
        const std::uint64_t check_cost =
            (is_bound_insn ? costs::kBoundInstruction
                           : costs::kSoftwareBoundCheck) +
            (interval ? costs::kIntervalCheckExtra : 0);
        cycles += check_cost;
        checking_cy += check_cost;
        ++ctr.sw_checks;
        const Value addr = reg_of(instr.src0);
        const Value hi = interval ? reg_of(instr.src1) : addr;
        // Interval form: an empty range (lo > hi) passes unconditionally.
        if (addr.info != 0 && addr.bits <= hi.bits) {
          Result<std::uint32_t> lower =
              mmu.read32_linear(addr.info + runtime::kInfoLowerOff);
          Result<std::uint32_t> upper =
              mmu.read32_linear(addr.info + runtime::kInfoUpperOff);
          if (lower.ok() && upper.ok() &&
              (addr.bits < lower.value() ||
               hi.bits + 4 > upper.value())) {
            std::ostringstream detail;
            detail << (is_bound_insn ? "bound instruction" : "software check")
                   << ": ";
            if (interval) {
              detail << "range [0x" << std::hex << addr.bits << ", 0x"
                     << hi.bits << "]";
            } else {
              detail << "address 0x" << std::hex << addr.bits;
            }
            detail << " outside [0x" << lower.value() << ", 0x"
                   << upper.value() << ")";
            fail(Fault{FaultKind::kBoundRange, addr.bits, 0, detail.str()},
                 frame, &instr);
          }
        }
        break;
      }
      case Opcode::kCall: {
        const std::string& callee = instr.callee;
        std::vector<Value> args;
        args.reserve(instr.args.size());
        for (ir::Reg arg : instr.args) {
          args.push_back(reg_of(arg));
        }
        ++ctr.calls;

        const auto target_it = call_targets.find(&instr);
        const CallTarget target =
            target_it != call_targets.end()
                ? target_it->second
                : CallTarget{builtin_of(callee), module->find_function(callee)};

        // --- builtins ---
        if (target.builtin == Builtin::kMalloc) {
          runtime::CashHeap::Object obj =
              heap.allocate(args.empty() ? 0 : args[0].bits);
          cycles += obj.cycles;
          runtime_cy += obj.cycles;
          ++ctr.malloc_calls;
          if (obj.data == 0) {
            fail(Fault{FaultKind::kResourceExhausted, 0, 0,
                       "simulated heap exhausted: malloc(" +
                           std::to_string(args.empty() ? 0 : args[0].bits) +
                           ")"},
                 frame, &instr);
            break;
          }
          reg_of(instr.dst) = Value{obj.data, obj.info};
        } else if (target.builtin == Builtin::kFree) {
          const std::uint64_t released =
              heap.release(args.empty() ? 0 : args[0].bits);
          cycles += released;
          runtime_cy += released;
        } else if (target.builtin == Builtin::kSqrt) {
          reg_of(instr.dst) = from_float(std::sqrt(as_float(args[0])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kFabs) {
          reg_of(instr.dst) = from_float(std::fabs(as_float(args[0])));
          cycles += costs::kAluOp;
        } else if (target.builtin == Builtin::kSin) {
          reg_of(instr.dst) = from_float(std::sin(as_float(args[0])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kCos) {
          reg_of(instr.dst) = from_float(std::cos(as_float(args[0])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kExp) {
          reg_of(instr.dst) = from_float(std::exp(as_float(args[0])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kLog) {
          reg_of(instr.dst) = from_float(std::log(as_float(args[0])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kFloor) {
          reg_of(instr.dst) = from_float(std::floor(as_float(args[0])));
          cycles += costs::kAluOp;
        } else if (target.builtin == Builtin::kPow) {
          reg_of(instr.dst) =
              from_float(std::pow(as_float(args[0]), as_float(args[1])));
          cycles += costs::kMathBuiltin;
        } else if (target.builtin == Builtin::kAbs) {
          // Defined for INT_MIN too (wraps to itself, like x86 neg).
          const std::int32_t v = as_int(args[0]);
          reg_of(instr.dst) =
              v < 0 ? Value{0U - args[0].bits, 0} : from_int(v);
          cycles += costs::kAluOp;
        } else if (target.builtin == Builtin::kPrintInt) {
          result.output += std::to_string(as_int(args[0]));
          result.output += '\n';
          cycles += 10;
        } else if (target.builtin == Builtin::kPrintFloat) {
          char buffer[32];
          std::snprintf(buffer, sizeof(buffer), "%.6g",
                        static_cast<double>(as_float(args[0])));
          result.output += buffer;
          result.output += '\n';
          cycles += 10;
        } else if (target.builtin == Builtin::kRand) {
          rng_state = rng_state * 1103515245U + 12345U;
          reg_of(instr.dst) =
              from_int(static_cast<std::int32_t>((rng_state >> 16) & 0x7FFF));
          cycles += 5;
        } else if (target.builtin == Builtin::kSrand) {
          rng_state = args.empty() ? 1 : args[0].bits;
          cycles += 2;
        } else {
          // --- user function ---
          const ir::Function* fn = target.fn;
          if (fn == nullptr) {
            result.error = "call to unknown function " + callee;
            break;
          }
          cycles += costs::kCallRet;
          ++frame.ip; // return to the next instruction
          if (!push_frame(fn, instr.dst, args)) {
            result.error = "stack overflow calling " + callee;
            break;
          }
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
        const ir::Reg ret_dst = frame.ret_dst;
        pop_frame();
        if (frames.empty()) {
          return_value = value;
        } else if (ret_dst != ir::kNoReg) {
          frames.back().regs[static_cast<std::size_t>(ret_dst)] = value;
        }
        advance = false;
        break;
      }
    }

    if (result.fault.has_value() || !result.error.empty()) {
      break;
    }
    if (advance && !frames.empty()) {
      ++frames.back().ip;
    }
  }

  account_span(nullptr); // flush the final span
  for (const auto& [fn, prof] : profile) {
    result.profile[fn->name] = prof;
  }
  result.cycles = cycles;
  result.shadow_cycles = shadow_cy;
  result.breakdown.checking = checking_cy;
  result.breakdown.runtime = runtime_cy;
  result.breakdown.base = cycles - checking_cy - runtime_cy;
  result.exit_code = as_int(return_value);
  result.ok = !result.fault.has_value() && result.error.empty();
  result.tlb_stats = pages.tlb().stats();
  result.segment_stats = segments.stats();
  result.heap_stats = heap.stats();
  result.kernel_account = kernel.account(pid);
  result.fault_stats = injector.stats();
  return result;
}

} // namespace cash::vm
