// The call-frame stack, prologue and epilogue that the reference
// interpreter and the micro-op engine share (DESIGN.md §7).
#include "vm/machine_impl.hpp"

namespace cash::vm {

void CallStack::reset(std::size_t functions, std::uint64_t now) {
  frames_.clear();
  partial_ = CallFrame{};
  values_.clear();
  segs_.clear();
  returned_ = Value{};
  profile_.assign(functions, FunctionProfile{});
  profiled_ = nullptr;
  span_start_ = now;
}

void CallStack::account(std::uint64_t now, FunctionProfile* next) noexcept {
  if (profiled_ != nullptr) {
    profiled_->self_cycles += now - span_start_;
  }
  span_start_ = now;
  profiled_ = next;
}

FrameCharge CallStack::push(Machine::Impl& impl, std::uint32_t fn_index,
                            ir::Reg ret_dst,
                            const std::vector<ir::Reg>& args,
                            std::uint64_t now) {
  FrameCharge charge;
  const ir::Function& fn = *impl.module->functions[fn_index];
  // Registers, slots and the local-array table. The arena of every live
  // frame's values is bounded by the simulated stack's size, so that deep
  // recursion through wide frames overflows the stack before it can
  // exhaust host memory.
  const std::size_t values = values_.size() +
                             static_cast<std::size_t>(fn.next_reg) +
                             2 * fn.locals.size();
  if (frames_.size() >= kMaxCallDepth ||
      values * sizeof(Value) > kStackTop - kStackLimit) {
    charge.overflow = true;
    return charge;
  }
  CallFrame frame;
  frame.fn = &fn;
  frame.fn_index = fn_index;
  frame.ret_dst = ret_dst;
  frame.saved_sp = impl.sp;
  frame.base = static_cast<std::uint32_t>(values_.size());
  frame.seg_base = static_cast<std::uint32_t>(segs_.size());
  frame.block = fn.entry;
  values_.resize(values); // zeroed
  Value* regs = values_.data() + frame.base;
  Value* slots = frame_slots(regs, fn);
  Value* arrays = frame_arrays(regs, fn);

  if (!frames_.empty()) {
    const Value* caller = values_.data() + frames_.back().base;
    const std::uint64_t penalty = impl.ptr_copy_penalty();
    for (std::size_t i = 0; i < fn.params.size() && i < args.size(); ++i) {
      slots[static_cast<std::size_t>(fn.params[i].slot)] =
          caller[static_cast<std::size_t>(args[i])];
      if (ir::is_pointer(fn.params[i].type)) {
        charge.runtime += penalty;
        charge.ptr_copies += penalty;
      }
    }
  }

  // Stack space + segment set-up for local arrays.
  for (std::size_t i = 0; i < fn.locals.size(); ++i) {
    const ir::LocalSlot& slot = fn.locals[i];
    if (!slot.is_array) {
      continue;
    }
    // In 64 bits, so that no declared size wraps past the stack limit.
    const std::uint64_t footprint = array_footprint(slot.elem_count);
    const std::uint32_t info =
        footprint > impl.sp - kStackLimit
            ? 0
            : align_down(impl.sp - static_cast<std::uint32_t>(footprint), 8);
    if (info < kStackLimit) {
      partial_ = frame;
      charge.overflow = true;
      return charge;
    }
    impl.sp = info;
    const std::uint32_t size = slot.elem_count * ir::kWordSize;
    const std::uint32_t data = info + runtime::kInfoBytes;
    impl.pages.map_range(info, runtime::kInfoBytes + size);
    arrays[i].bits = data;
    if (runtime::gets_info_block(impl.config.mode)) {
      charge.runtime += impl.arrays.setup(info, data, size);
      arrays[i].info = info;
    }
  }

  // Save clobbered segment registers (Section 3.7).
  for (std::int8_t reg : fn.used_seg_regs) {
    const auto seg = static_cast<x86seg::SegReg>(reg);
    segs_.emplace_back(seg, impl.seg_unit.reg(seg));
    charge.runtime += 1;
  }
  frames_.push_back(frame);
  account(now + charge.runtime, &profile_[fn_index]);
  ++profiled_->calls;
  return charge;
}

std::uint64_t CallStack::release(Machine::Impl& impl, const CallFrame& frame) {
  std::uint64_t runtime = 0;
  const ir::Function& fn = *frame.fn;
  const Value* arrays = frame_arrays(values_.data() + frame.base, fn);
  for (std::size_t i = 0; i < fn.locals.size(); ++i) {
    if (arrays[i].info != 0) {
      runtime += impl.arrays.teardown(arrays[i].info);
    }
  }
  for (std::size_t i = segs_.size(); i-- > frame.seg_base;) {
    impl.seg_unit.restore(segs_[i].first, segs_[i].second);
    runtime += 1;
  }
  impl.sp = frame.saved_sp;
  values_.resize(frame.base);
  segs_.resize(frame.seg_base);
  return runtime;
}

FrameCharge CallStack::pop(Machine::Impl& impl, Value result,
                           std::uint64_t now) {
  FrameCharge charge;
  const CallFrame frame = frames_.back();
  frames_.pop_back();
  charge.runtime = release(impl, frame);
  if (frames_.empty()) {
    returned_ = result;
    account(now + charge.runtime, nullptr);
  } else {
    if (frame.ret_dst != ir::kNoReg) {
      regs(frames_.back())[static_cast<std::size_t>(frame.ret_dst)] = result;
    }
    account(now + charge.runtime, &profile_[frames_.back().fn_index]);
  }
  return charge;
}

void CallStack::unwind(Machine::Impl& impl) {
  if (partial_.fn != nullptr) {
    release(impl, partial_);
    partial_ = CallFrame{};
  }
  while (!frames_.empty()) {
    const CallFrame frame = frames_.back();
    frames_.pop_back();
    release(impl, frame);
  }
}

void CallStack::flush_profile(const ir::Module& module, std::uint64_t now,
                              std::map<std::string, FunctionProfile>& out) {
  account(now, nullptr);
  for (std::size_t i = 0; i < profile_.size(); ++i) {
    if (profile_[i].calls != 0) {
      out[module.functions[i]->name] = profile_[i];
    }
  }
}

} // namespace cash::vm
