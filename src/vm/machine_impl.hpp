#pragma once

// Internal definitions shared by the reference interpreter (machine.cpp),
// the pre-decoded micro-op engine (decode.cpp) and the snapshot layer
// (snapshot.cpp). Not part of the public API — include vm/machine.hpp
// instead.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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

// Memory map of the simulated process.
inline constexpr std::uint32_t kGlobalsBase = 0x08100000;
inline constexpr std::uint32_t kHeapBase = 0x10000000;
inline constexpr std::uint32_t kHeapLimit = 0xA0000000;
inline constexpr std::uint32_t kStackTop = 0xBF000000;
inline constexpr std::uint32_t kStackLimit = 0xBB000000; // 64 MB of stack

constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t a) {
  return (v + a - 1) & ~(a - 1);
}
constexpr std::uint32_t align_down(std::uint32_t v, std::uint32_t a) {
  return v & ~(a - 1);
}

// Call sites are resolved to a CallTarget once per Machine (the IR is
// immutable after lowering), so the interpreter's per-call dispatch is a
// pointer-keyed hash lookup plus an enum switch instead of a chain of
// string compares and a linear function-list scan. The micro-op decoder
// resolves them once per program instead (vm/decode.hpp).
struct CallTarget {
  Builtin builtin{Builtin::kNone};
  const ir::Function* fn{nullptr}; // resolved callee when builtin == kNone
};

struct Frame {
  const ir::Function* func{nullptr};
  std::vector<Value> regs;
  std::vector<Value> slots;
  ir::BlockId block{ir::kNoBlock};
  std::size_t ip{0};
  ir::Reg ret_dst{ir::kNoReg};
  std::uint32_t saved_sp{0};
  // Local array instances, indexed by slot (0 when the slot is no array).
  std::vector<std::uint32_t> array_data;
  std::vector<std::uint32_t> array_info;
  // Segment registers this function clobbers, saved at entry.
  std::vector<std::pair<x86seg::SegReg, x86seg::SegmentRegister>> saved_segs;
};

// --- hot-trace superblock engine state (decode.cpp; DESIGN.md §11). Lives
// per Machine, not in the shared-const DecodedProgram: machines on
// different host threads promote and execute traces independently. The
// per-function cache below lives as long as its Machine — restore() leaves
// it alone, so every request a restored machine serves runs the traces the
// earlier ones formed. Traces are transparent, so which of them exist never
// changes a simulated result. ---

// Branch-bias counters, indexed by the terminator's micro-op index in the
// active stream. Recorded only during non-trace execution (trace-local pcs
// would mis-index the array); a pure function of the simulated stream.
struct TraceEdge {
  std::uint32_t taken{0};
  std::uint32_t not_taken{0};
};

// Per-block cumulative accounting inside a formed trace: when block g's
// guard (its terminator) leaves the trace, blocks [0..g] are complete.
struct TraceBlock {
  std::uint32_t entry_pc{0};    // original-stream index of the group header
  std::uint32_t plain_first{0}; // cold-path itemization anchor
  StaticCost cum_cost;          // aggregate cost of blocks [0..this]
  std::uint32_t cum_count{0};   // aggregate IR instructions of [0..this]
};

// One superblock: the spliced straight-line micro-op stream (members back
// to back, guards at side exits, then either the final block's original
// terminator or — when the biased chain closes back on the entry — a
// kTraceLoop that restarts the stream in place) plus the accounting
// tables. `total` is shaped like a FoldedGroup so the engine's group_done
// path retires a completed trace with the exact code that retires a
// normal group. block_of/plain_done are per-uop-index lookup tables that
// replace in-stream boundary markers: the hot path carries no per-block
// bookkeeping at all, and the cold paths (guard exit, mid-trace fault)
// reconstruct exact charges from the tables.
struct Trace {
  std::uint32_t entry_pc{0};
  std::vector<MicroInstr> uops;
  std::vector<TraceBlock> blocks;
  // Per uop index: which block it belongs to, and how many plain IR
  // instructions of that block complete before it (the itemization offset
  // a fault at this uop starts from).
  std::vector<std::uint32_t> block_of;
  std::vector<std::uint32_t> plain_done;
  FoldedGroup total;
};

// Per-function trace state, parallel to the active stream's uop array.
// Tagged with the stream it indexes, which is set on first use (a machine's
// enable_fusion, and so its stream, never changes).
struct FnTraceState {
  const UopStream* stream{nullptr};
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
  // Call-resolution cache: one entry per kCall site in the module.
  std::unordered_map<const ir::Instr*, CallTarget> call_targets;

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

    for (const auto& fn : module->functions) {
      for (const auto& block : fn->blocks) {
        for (const ir::Instr& in : block->instrs) {
          if (in.op != ir::Opcode::kCall) {
            continue;
          }
          CallTarget target;
          target.builtin = builtin_of(in.callee);
          if (target.builtin == Builtin::kNone) {
            target.fn = module->find_function(in.callee);
          }
          call_targets.emplace(&in, target);
        }
      }
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
        data = block + runtime::kInfoBytes;
        const std::uint32_t size = g.elem_count * ir::kWordSize;
        cursor = data + size;
        pages.map_range(block, runtime::kInfoBytes + size);
        if (config.mode == passes::CheckMode::kCash ||
            config.mode == passes::CheckMode::kBcc ||
            config.mode == passes::CheckMode::kBoundInsn ||
            config.mode == passes::CheckMode::kShadow) {
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

  std::uint64_t ptr_copy_penalty() const noexcept {
    switch (config.mode) {
      case passes::CheckMode::kCash:      return 1; // 2-word pointers
      case passes::CheckMode::kBcc:
      case passes::CheckMode::kBoundInsn: return 2; // 3-word pointers
      default:                            return 0;
    }
  }

  // Converts simulator-resource exhaustion (physical memory, etc.) into a
  // clean result. Structured faults (FaultException — e.g. frame-pool
  // exhaustion, injected or genuine) land in RunResult.fault with the
  // machine's counters attached; anything else is a simulator limit.
  RunResult execute(const ir::Function* entry) {
    try {
      return execute_impl(entry);
    } catch (const FaultException& e) {
      RunResult r;
      r.fault = e.fault();
      r.tlb_stats = pages.tlb().stats();
      r.segment_stats = segments.stats();
      r.heap_stats = heap.stats();
      r.kernel_account = kernel.account(pid);
      r.fault_stats = injector.stats();
      r.trace_stats = trace_stats;
      return r;
    } catch (const std::exception& e) {
      RunResult r;
      r.error = std::string("simulator limit: ") + e.what();
      r.fault_stats = injector.stats();
      return r;
    }
  }

  // Dispatches to the micro-op engine when a decoded image is attached,
  // otherwise runs the reference interpreter. Both produce bit-identical
  // RunResults (tests/vm/decode_test.cpp).
  RunResult execute_impl(const ir::Function* entry);

  // Reference interpreter (machine.cpp).
  RunResult execute_interpreter(const ir::Function* entry);
};

// Micro-op engine entry point (decode.cpp). Requires impl.decoded != null.
RunResult execute_decoded(Machine::Impl& impl, const ir::Function* entry);

} // namespace cash::vm
