#pragma once

// Internal definitions shared by the reference interpreter (machine.cpp),
// the pre-decoded micro-op engine (decode.cpp) and the snapshot layer
// (snapshot.cpp). Not part of the public API — include vm/machine.hpp
// instead.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hot_inline.hpp"
#include "common/memory_map.hpp"
#include "runtime/array_runtime.hpp"
#include "vm/decode.hpp"
#include "vm/machine.hpp"

namespace cash::vm {

// A runtime value: 32-bit payload plus the pointer-shadow word (the address
// of the object's 3-word info structure, or 0 for unchecked pointers and
// non-pointers). This models the paper's 2-word pointer representation.
struct Value {
  std::uint32_t bits{0};
  std::uint32_t info{0};
};

inline std::int32_t as_int(Value v) noexcept {
  return static_cast<std::int32_t>(v.bits);
}
inline float as_float(Value v) noexcept {
  return std::bit_cast<float>(v.bits);
}
inline Value from_int(std::int32_t i, std::uint32_t info = 0) noexcept {
  return {static_cast<std::uint32_t>(i), info};
}
inline Value from_float(float f) noexcept {
  return {std::bit_cast<std::uint32_t>(f), 0};
}

// Runs a builtin other than malloc and free, in both engines: reads its
// arguments from regs[src0] and regs[src1], writes its result to
// regs[dst] and appends what it prints to `output`. It costs
// builtin_cycles().
CASH_HOT_INLINE inline void run_builtin(Builtin builtin, Value* regs,
                                        ir::Reg dst, ir::Reg src0,
                                        ir::Reg src1, std::string& output,
                                        std::uint32_t& rng_state) {
  const auto x = [&] { return as_float(regs[src0]); };
  switch (builtin) {
    case Builtin::kSqrt: regs[dst] = from_float(std::sqrt(x())); break;
    case Builtin::kFabs: regs[dst] = from_float(std::fabs(x())); break;
    case Builtin::kSin: regs[dst] = from_float(std::sin(x())); break;
    case Builtin::kCos: regs[dst] = from_float(std::cos(x())); break;
    case Builtin::kExp: regs[dst] = from_float(std::exp(x())); break;
    case Builtin::kLog: regs[dst] = from_float(std::log(x())); break;
    case Builtin::kFloor: regs[dst] = from_float(std::floor(x())); break;
    case Builtin::kPow:
      regs[dst] = from_float(std::pow(x(), as_float(regs[src1])));
      break;
    case Builtin::kAbs: {
      // Defined for INT_MIN too (wraps to itself, like x86 neg).
      const Value a = regs[src0];
      regs[dst] = as_int(a) < 0 ? Value{0U - a.bits, 0} : from_int(as_int(a));
      break;
    }
    case Builtin::kPrintInt:
      output += std::to_string(as_int(regs[src0]));
      output += '\n';
      break;
    case Builtin::kPrintFloat: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.6g", static_cast<double>(x()));
      output += buffer;
      output += '\n';
      break;
    }
    case Builtin::kRand:
      rng_state = rng_state * 1103515245U + 12345U;
      regs[dst] =
          from_int(static_cast<std::int32_t>((rng_state >> 16) & 0x7FFF));
      break;
    case Builtin::kSrand:
      rng_state = src0 == ir::kNoReg ? 1 : regs[src0].bits;
      break;
    default:
      break;
  }
}

// Deepest call nesting, the entry frame included. A call past it overflows
// the stack like one whose local arrays do not fit above kStackLimit, or
// whose registers and slots would take the frames' values past the stack's
// 64 MB. No workload, fuzz program or test comes near it (CHANGES.md).
inline constexpr std::size_t kMaxCallDepth = std::size_t{1} << 16;

constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t a) {
  return (v + a - 1) & ~(a - 1);
}
constexpr std::uint32_t align_down(std::uint32_t v, std::uint32_t a) {
  return v & ~(a - 1);
}

// --- the call-frame stack both engines share (call_stack.cpp; DESIGN.md
// §7) ---

// A frame's fixed header. Its registers, then its slots, then its
// local-array table (per slot: an array's data address and info block)
// live in the stack's value arena from `base` on; the segment registers it
// clobbers are saved from `seg_base` on. The engine stores where the frame
// resumes when it calls: the interpreter's block and ip, or the micro-op
// engine's pc (in `pos`).
struct CallFrame {
  const ir::Function* fn{nullptr};
  std::uint32_t fn_index{0}; // index in module->functions
  ir::Reg ret_dst{ir::kNoReg};
  std::uint32_t saved_sp{0};
  std::uint32_t base{0};
  std::uint32_t seg_base{0};
  ir::BlockId block{ir::kNoBlock};
  std::uint32_t pos{0};
};

// What a prologue or epilogue charges, all of it runtime work;
// `ptr_copies` is its pointer-argument part. `overflow`: the push did not
// fit.
struct FrameCharge {
  std::uint64_t runtime{0};
  std::uint64_t ptr_copies{0};
  bool overflow{false};

  void book(std::uint64_t& cycles, std::uint64_t& runtime_cy,
            RunCounters& ctr) const noexcept {
    cycles += runtime;
    runtime_cy += runtime;
    ctr.ptr_word_copies += ptr_copies;
  }
};

// The frames of a run and the per-function profile, which is updated only
// at calls and returns. The arenas keep their storage across pops and
// runs, so a call allocates nothing once the stack has been that deep. A
// pointer into an arena is valid until the next push or pop.
class CallStack {
 public:
  // Drops what an earlier run left and zeroes the profile; `now` is the
  // run's starting cycle count.
  void reset(std::size_t functions, std::uint64_t now);

  // The call prologue: pushes a frame for module function `fn_index`,
  // copies its parameters from the caller's registers `args`, carves and
  // sets up its local arrays and saves the segment registers it clobbers
  // (paper §3.7). `now` is the cycle count before the charge. On overflow
  // no frame is pushed, and the charge made until then stands; the local
  // arrays already carved stay live until unwind().
  FrameCharge push(Machine::Impl& impl, std::uint32_t fn_index,
                   ir::Reg ret_dst, const std::vector<ir::Reg>& args,
                   std::uint64_t now);
  // The epilogue: undoes the top frame's prologue, pops it and delivers
  // `result` to the caller's `ret_dst` (from the entry frame: returned()).
  FrameCharge pop(Machine::Impl& impl, Value result, std::uint64_t now);

  // Undoes what a run that ended inside calls (a fault, the instruction
  // budget, a stack overflow) left live: the local arrays and saved
  // segment registers of its frames, and of a prologue that overflowed
  // part-way, top first; the simulated stack pointer ends where the entry
  // frame found it. Called once the run's result is final, so the cycles
  // these epilogues would charge are booked nowhere.
  void unwind(Machine::Impl& impl);

  bool empty() const noexcept { return frames_.empty(); }
  CallFrame& top() noexcept { return frames_.back(); }
  Value* regs(const CallFrame& f) noexcept { return values_.data() + f.base; }
  Value returned() const noexcept { return returned_; }

  // Closes the open profile span and reports each called function.
  void flush_profile(const ir::Module& module, std::uint64_t now,
                     std::map<std::string, FunctionProfile>& out);

 private:
  void account(std::uint64_t now, FunctionProfile* next) noexcept;
  // An epilogue without the result delivery: tears down `frame`'s local
  // arrays, restores its saved segment registers and the stack pointer,
  // and drops its arena space. Returns the runtime cycles it costs.
  std::uint64_t release(Machine::Impl& impl, const CallFrame& frame);

  std::vector<CallFrame> frames_;
  CallFrame partial_; // an overflowed prologue's frame, if fn != nullptr
  std::vector<Value> values_;
  std::vector<std::pair<x86seg::SegReg, x86seg::SegmentRegister>> segs_;
  Value returned_;
  std::vector<FunctionProfile> profile_; // indexed like module->functions
  FunctionProfile* profiled_{nullptr};   // whose span is open
  std::uint64_t span_start_{0};
};

// A frame's slots and local-array table, from its registers.
inline Value* frame_slots(Value* regs, const ir::Function& fn) noexcept {
  return regs + fn.next_reg;
}
inline Value* frame_arrays(Value* regs, const ir::Function& fn) noexcept {
  return regs + fn.next_reg + fn.locals.size();
}

// --- hot-trace superblock engine state (decode.cpp; DESIGN.md §11). Lives
// per Machine, not in the shared-const DecodedProgram: machines on
// different host threads promote and execute traces independently. The
// per-function cache below lives as long as its Machine — restore() leaves
// it alone, so every request a restored machine serves runs the traces the
// earlier ones formed. Traces are transparent, so which of them exist never
// changes a simulated result. ---

// Branch-bias counters, indexed by the terminator's slot. Recorded only
// during non-trace execution (trace-local pcs would mis-index the array); a
// pure function of the simulated stream.
struct TraceEdge {
  std::uint32_t taken{0};
  std::uint32_t not_taken{0};
};

// Per-block cumulative accounting inside a formed trace: when block g's
// guard (its terminator) leaves the trace, blocks [0..g] are complete.
struct TraceBlock {
  std::uint32_t entry_pc{0};   // slot of the block's group header
  std::uint32_t first_slot{0}; // trace slot of the block's first member
  StaticCost cum_cost;         // aggregate cost of blocks [0..this]
  std::uint32_t cum_count{0};  // aggregate IR instructions of [0..this]
};

// One superblock: the spliced straight-line copy of its blocks' plain
// slots (members back to back, guards at side exits, then either the final
// block's original terminator or — when the biased chain closes back on the
// entry — a kTraceLoop that restarts the stream in place), tiled by the
// SUPER rows, plus the accounting tables. `total` is shaped like a
// FoldedGroup so the engine's group_done path retires a completed trace
// with the exact code that retires a normal group. block_of is a per-slot
// lookup table that replaces in-stream boundary markers: the hot path
// carries no per-block bookkeeping at all, and the cold paths (guard exit,
// mid-trace fault) reconstruct exact charges from it and `blocks`.
struct Trace {
  std::uint32_t entry_pc{0};
  std::vector<MicroInstr> uops;
  std::vector<TraceBlock> blocks;
  std::vector<std::uint32_t> block_of; // per slot: its block's index
  FoldedGroup total;
};

// Per-function trace state, one entry per slot of the function (both
// copies of the slots share the indices), sized on first use.
struct FnTraceState {
  std::vector<std::uint32_t> hot;     // block-header execution counters
  std::vector<TraceEdge> edges;       // terminator bias counters
  std::vector<std::int32_t> trace_at; // pc -> trace index; -1 = none yet,
                                      // -2 = promotion attempted and refused
  std::vector<Trace> traces;
};

struct Machine::Impl {
  const ir::Module* module;
  MachineConfig config;
  // Declared before the components so it outlives none of them; the
  // components hold raw pointers to it (wired in the ctor body — Impl is
  // heap-allocated, so the address is stable).
  faultinject::FaultInjector injector;

  kernel::KernelSim kernel;
  kernel::Pid pid;
  paging::PhysicalMemory phys;
  paging::PageTable pages;
  x86seg::SegmentationUnit seg_unit;
  mmu::Mmu mmu;
  runtime::SegmentManager segments;
  runtime::ArrayRuntime arrays;
  runtime::CashHeap heap;

  // Pre-decoded micro-op image for this module (owned by the
  // CompiledProgram; null when the machine runs the reference interpreter).
  const DecodedProgram* decoded{nullptr};

  // Hot-trace superblock cache: counters, bias edges and formed traces
  // (decode.cpp), parallel to DecodedProgram::functions(). Not part of the
  // snapshot: it outlives restore().
  std::vector<FnTraceState> trace_fns;
  // Hot-trace statistics: cumulative across runs, and part of the snapshot,
  // so restore() rewinds them and a run's RunResult::trace_stats counts
  // from the captured values.
  TraceStats trace_stats;

  bool program_initialized{false};
  std::uint64_t init_cycles{0};
  // The placed globals, indexed by symbol and filled at program
  // initialisation; both engines read them. flat_global_data holds every
  // global's data address (scalars included), flat_global_info an array's
  // info block (0 for scalars and in unchecked modes), flat_global_scalar
  // a scalar's address. A zero data or scalar entry means the symbol names
  // no global of that kind.
  std::vector<std::uint32_t> flat_global_data;
  std::vector<std::uint32_t> flat_global_info;
  std::vector<std::uint32_t> flat_global_scalar;
  // Shadow info words for pointers stored in memory (see DESIGN.md: the
  // adjacent shadow word is modelled as a side table keyed by address).
  std::unordered_map<std::uint32_t, std::uint32_t> mem_ptr_info;
  std::uint32_t sp{kStackTop};
  std::uint32_t rng_state;
  // The running program's frames and profile. Not part of the snapshot:
  // every run starts it afresh.
  CallStack stack;

  Impl(const ir::Module& m, MachineConfig cfg)
      : module(&m),
        config(cfg),
        injector(cfg.fault_plan, cfg.rng_seed),
        pid(kernel.create_process()),
        phys(cfg.phys_frames),
        pages(phys),
        seg_unit(kernel.gdt(), kernel.ldt(pid)),
        mmu(seg_unit, pages, phys),
        segments(kernel, pid, cfg.max_ldts, &injector),
        arrays(mmu, segments, cfg.mode),
        heap(mmu, arrays, kHeapBase, kHeapLimit),
        rng_state(cfg.rng_seed) {
    kernel.set_fault_injector(&injector);
    phys.set_fault_injector(&injector);
    heap.set_fault_injector(&injector);
    // Flat model as Linux sets it up.
    (void)seg_unit.load(x86seg::SegReg::kCs, kernel::flat_user_code_selector());
    (void)seg_unit.load(x86seg::SegReg::kDs, kernel::flat_user_data_selector());
    (void)seg_unit.load(x86seg::SegReg::kSs, kernel::flat_user_data_selector());
    (void)seg_unit.load(x86seg::SegReg::kEs, kernel::flat_user_data_selector());

    if (!cfg.enable_tlb) {
      pages.tlb().set_enabled(false);
    }
  }

  // One-time program load: place globals, charge per-program + per-global-
  // array set-up (the code Cash inserts at program start, Section 3.4).
  void initialize_program() {
    if (program_initialized) {
      return;
    }
    program_initialized = true;
    if (config.mode == passes::CheckMode::kCash) {
      init_cycles += segments.initialize();
    }
    // Sized to cover every global even when hand-built IR leaves
    // next_symbol short of a global's symbol.
    std::size_t n =
        static_cast<std::size_t>(module->next_symbol > 0 ? module->next_symbol
                                                         : 0);
    for (const ir::GlobalVar& g : module->globals) {
      if (g.symbol >= 0) {
        n = std::max(n, static_cast<std::size_t>(g.symbol) + 1);
      }
    }
    flat_global_data.assign(n, 0);
    flat_global_info.assign(n, 0);
    flat_global_scalar.assign(n, 0);
    std::uint32_t cursor = kGlobalsBase;
    for (const ir::GlobalVar& g : module->globals) {
      std::uint32_t data = 0;
      std::uint32_t info = 0;
      if (g.is_array) {
        const std::uint32_t block = align_up(cursor, 8);
        // The front end rejects globals past the region; hand-built IR
        // gets a host error here rather than a wrapped size.
        if (block + array_footprint(g.elem_count) > kHeapBase) {
          throw std::length_error("global array " + g.name +
                                  " does not fit below the heap");
        }
        data = block + runtime::kInfoBytes;
        const std::uint32_t size = g.elem_count * ir::kWordSize;
        cursor = data + size;
        pages.map_range(block, runtime::kInfoBytes + size);
        if (runtime::gets_info_block(config.mode)) {
          init_cycles += arrays.setup(block, data, size);
          info = block;
        }
      } else {
        data = align_up(cursor, 4);
        cursor = data + 4;
        pages.map_range(data, 4);
      }
      if (g.symbol < 0) {
        continue; // placed, but no access can name it
      }
      const std::size_t sym = static_cast<std::size_t>(g.symbol);
      if (!g.is_array) {
        flat_global_scalar[sym] = data;
      }
      flat_global_data[sym] = data;
      flat_global_info[sym] = info;
    }
  }

  // `fn`'s index in module->functions (the call stack's and the decoded
  // image's function order), or -1.
  std::int32_t function_index(const ir::Function* fn) const noexcept {
    for (std::size_t i = 0; fn != nullptr && i < module->functions.size();
         ++i) {
      if (module->functions[i].get() == fn) {
        return static_cast<std::int32_t>(i);
      }
    }
    return -1;
  }

  // Starts a run on either engine: loads the program (its one-time set-up
  // is charged to the first run), starts the call stack afresh and pushes
  // `entry`'s frame. Returns the run's opening charge, or sets r.error.
  FrameCharge begin_run(const ir::Function* entry, RunResult& r) {
    initialize_program();
    FrameCharge charge;
    charge.runtime = init_cycles;
    init_cycles = 0;
    stack.reset(module->functions.size(), charge.runtime);
    const std::int32_t index = function_index(entry);
    if (index < 0) {
      r.error = "no such function: " + (entry ? entry->name : "<null>");
      return charge;
    }
    const FrameCharge entered = stack.push(
        *this, static_cast<std::uint32_t>(index), ir::kNoReg, {},
        charge.runtime);
    if (entered.overflow) {
      r.error = "stack overflow at program start";
    }
    charge.runtime += entered.runtime;
    return charge;
  }

  // The component statistics every RunResult carries, faulted runs
  // included.
  void fill_stats(RunResult& r) const {
    r.tlb_stats = pages.tlb().stats();
    r.segment_stats = segments.stats();
    r.heap_stats = heap.stats();
    r.kernel_account = kernel.account(pid);
    r.fault_stats = injector.stats();
  }

  // The result tail both engines share: the profile, the cycle totals and
  // their breakdown, the exit code and the component statistics.
  void finish_run(RunResult& r, std::uint64_t cycles, std::uint64_t checking,
                  std::uint64_t shadow, std::uint64_t runtime) {
    stack.flush_profile(*module, cycles, r.profile);
    r.cycles = cycles;
    r.shadow_cycles = shadow;
    r.breakdown.checking = checking;
    r.breakdown.runtime = runtime;
    r.breakdown.base = cycles - checking - runtime;
    r.exit_code = as_int(stack.returned());
    r.ok = !r.fault.has_value() && r.error.empty();
    fill_stats(r);
  }

  // The segment-register load of kSegLoad, for both engines: loads `seg`
  // with the selector in the info block `ptr` points to (the flat data
  // segment for unchecked objects), repointing the LDTR first when the
  // segment lives in another LDT. Adds the cycles it charges, all checking
  // work, to `cost`.
  Status load_segment(x86seg::SegReg seg, Value ptr, std::uint64_t& cost);

  std::uint64_t ptr_copy_penalty() const noexcept {
    switch (config.mode) {
      case passes::CheckMode::kCash:      return 1; // 2-word pointers
      case passes::CheckMode::kBcc:
      case passes::CheckMode::kBoundInsn: return 2; // 3-word pointers
      default:                            return 0;
    }
  }

  // Runs `entry`; once the result is final, undoes the frames a run that
  // ended inside calls left live, so the next run on this machine starts
  // from a clean stack.
  RunResult execute(const ir::Function* entry) {
    RunResult r = execute_guarded(entry);
    stack.unwind(*this);
    return r;
  }

  // Converts simulator-resource exhaustion (physical memory, etc.) into a
  // clean result. Structured faults (FaultException — e.g. frame-pool
  // exhaustion, injected or genuine) land in RunResult.fault with the
  // machine's counters attached; anything else is a simulator limit. The
  // engines print into `output`, outside their result, so that either way
  // the result keeps what the program printed before the throw.
  RunResult execute_guarded(const ir::Function* entry) {
    std::string output;
    try {
      RunResult r = execute_impl(entry, output);
      r.output = std::move(output);
      return r;
    } catch (const FaultException& e) {
      RunResult r;
      r.output = std::move(output);
      r.fault = e.fault();
      fill_stats(r);
      r.trace_stats = trace_stats;
      return r;
    } catch (const std::exception& e) {
      RunResult r;
      r.output = std::move(output);
      r.error = std::string(kSimulatorLimitPrefix) + e.what();
      r.fault_stats = injector.stats();
      return r;
    }
  }

  // Dispatches to the micro-op engine when a decoded image is attached,
  // otherwise runs the reference interpreter. Both produce bit-identical
  // RunResults (tests/vm/decode_test.cpp), and append what the program
  // prints to `output`.
  RunResult execute_impl(const ir::Function* entry, std::string& output);

  // Reference interpreter (machine.cpp).
  RunResult execute_interpreter(const ir::Function* entry,
                                std::string& output);
};

// Micro-op engine entry point (decode.cpp). Requires impl.decoded != null.
RunResult execute_decoded(Machine::Impl& impl, const ir::Function* entry,
                          std::string& output);

} // namespace cash::vm
