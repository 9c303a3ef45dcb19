#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/costs.hpp"
#include "common/fault.hpp"
#include "common/stats_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "ir/function.hpp"
#include "kernel/kernel_sim.hpp"
#include "mmu/mmu.hpp"
#include "paging/page_table.hpp"
#include "paging/physical_memory.hpp"
#include "passes/lower.hpp"
#include "runtime/heap.hpp"
#include "runtime/segment_manager.hpp"
#include "x86seg/segmentation_unit.hpp"

namespace cash::vm {

class DecodedProgram;  // vm/decode.hpp
class MachineSnapshot; // vm/snapshot.hpp
struct FnTraceState;   // vm/machine_impl.hpp

struct MachineConfig {
  passes::CheckMode mode{passes::CheckMode::kCash};
  // Physical memory behind the simulated machine.
  std::uint32_t phys_frames{32768}; // 128 MB
  // Abort runaway programs.
  std::uint64_t max_instructions{4'000'000'000ULL};
  // Seed for the deterministic rand() builtin; varying it varies the
  // workload instance (netsim gives each simulated request a fresh seed).
  std::uint32_t rng_seed{0x12345678};
  // LDTs available to the Cash runtime (Section 3.4 multi-LDT extension).
  // 1 = the paper's prototype: past 8191 live segments, objects fall back
  // to the unchecked global segment. > 1 = allocate extra LDTs and switch
  // the LDTR on demand (282 cycles per switch).
  int max_ldts{1};
  // Software TLB in front of the simulated page table (host-side fast path
  // only — simulated cycles, breakdowns and counters are bit-identical with
  // it on or off).
  bool enable_tlb{true};
  // Pre-decoded micro-op engine (DESIGN.md §7): execute the flat decoded
  // image a CompiledProgram builds at construction instead of walking the
  // IR per step. Host-side fast path only — simulated cycles, breakdowns
  // and counters are bit-identical with it on or off. Takes effect only for
  // machines created through CompiledProgram::make_machine (a Machine
  // constructed directly from a Module has no decoded image and always runs
  // the reference interpreter).
  bool enable_predecode{true};
  // Superinstruction fusion inside the micro-op engine (DESIGN.md §7):
  // selects which copy of the decoded slots block dispatch runs, the fused
  // copy (superinstruction opcodes in the first slot of each run) or the
  // plain one. Traces always apply the superinstruction table, whatever
  // this says. Host-side fast path only — simulated results are
  // bit-identical either way. No effect when the machine runs the reference
  // interpreter.
  bool enable_fusion{true};
  // Hot-trace superblock engine inside the micro-op engine (DESIGN.md §11):
  // deterministic per-block execution counters promote hot blocks into
  // straight-line superblocks spliced from the plain slots along the
  // recorded biased successor edges, with guard micro-ops at the side
  // exits. Host-side fast path only — simulated cycles, breakdowns,
  // counters, faults and output are bit-identical with it on or off. No
  // effect when the machine runs the reference interpreter.
  bool enable_trace{true};
  // Deterministic fault injection (DESIGN.md §8). Off by default: an empty
  // plan is bit-transparent — cycles, breakdowns and counters are identical
  // to a build without the layer. A non-empty plan replays identically for
  // a fixed (rng_seed, plan).
  faultinject::FaultPlan fault_plan{};
};

// Dynamic counters accumulated during one run.
struct RunCounters {
  std::uint64_t instructions{0};
  std::uint64_t hw_checked_accesses{0}; // accesses through array segments
  std::uint64_t sw_checks{0};           // software bound checks executed
  std::uint64_t seg_reg_loads{0};       // hoisted loads executed
  std::uint64_t ptr_word_copies{0};     // fat-pointer extra-word copies
  std::uint64_t calls{0};               // user calls, builtins (abs(),
                                        // print_int, ...), malloc, free
  std::uint64_t malloc_calls{0};
};
#define CASH_RUN_COUNTERS_FIELDS(X, HOST)                                 \
  X(instructions) X(hw_checked_accesses) X(sw_checks) X(seg_reg_loads)    \
  X(ptr_word_copies) X(calls) X(malloc_calls)
CASH_STATS_SCHEMA(RunCounters, CASH_RUN_COUNTERS_FIELDS)

// Where the simulated cycles went. `base` is the program's own work and is
// mode-independent (identical across NoCheck/Bcc/Cash/... for in-bounds
// runs — the test suite asserts this); `checking` is bound-check work
// (software checks, segment-register loads, LDTR switches); `runtime` is
// bookkeeping (program/segment set-up and teardown, allocator, fat-pointer
// word copies).
struct CycleBreakdown {
  std::uint64_t base{0};
  std::uint64_t checking{0};
  std::uint64_t runtime{0};

  std::uint64_t total() const noexcept { return base + checking + runtime; }
};
#define CASH_CYCLE_BREAKDOWN_FIELDS(X, HOST) X(base) X(checking) X(runtime)
CASH_STATS_SCHEMA(CycleBreakdown, CASH_CYCLE_BREAKDOWN_FIELDS)

// Per-function execution profile: calls and self cycles (callees excluded).
struct FunctionProfile {
  std::uint64_t calls{0};
  std::uint64_t self_cycles{0};
};
#define CASH_FUNCTION_PROFILE_FIELDS(X, HOST) X(calls) X(self_cycles)
CASH_STATS_SCHEMA(FunctionProfile, CASH_FUNCTION_PROFILE_FIELDS)

// Hot-trace superblock statistics (DESIGN.md §11). Host-side only, like
// TlbStats: the counters are cumulative across runs of one Machine, rewound
// by restore() to their captured values, and all zero when the trace engine
// is off (enable_trace=false or the reference interpreter). `coverage` is
// per-run: the fraction of this run's retired IR instructions that executed
// inside a superblock.
struct TraceStats {
  std::uint64_t traces_formed{0};
  std::uint64_t trace_execs{0};         // superblock entries
  std::uint64_t guard_exits{0};         // side exits through a guard uop
  std::uint64_t trace_instructions{0};  // IR instructions retired in traces
  double coverage{0.0};
};
#define CASH_TRACE_STATS_FIELDS(X, HOST)                                  \
  X(traces_formed) X(trace_execs) X(guard_exits) X(trace_instructions)    \
  X(coverage)
CASH_STATS_SCHEMA(TraceStats, CASH_TRACE_STATS_FIELDS)

// How RunResult::error begins when the host, not the simulated program,
// ran out of something (memory, a loader limit): the run ended on a host
// limit, not on a simulated fault or the instruction budget.
inline constexpr std::string_view kSimulatorLimitPrefix = "simulator limit: ";

struct RunResult {
  bool ok{false};                 // ran to completion (no fault, no budget
                                  // blow-up)
  std::optional<Fault> fault;     // set when a check / the hardware fired
  std::string error;              // non-fault failure (budget, bad program)
  std::int32_t exit_code{0};
  std::uint64_t cycles{0};        // simulated CPU cycles, runtime included
  CycleBreakdown breakdown;       // cycles split by cause
  // kShadow mode: cycles consumed by the shadow processor running the
  // derived checking program concurrently. Wall time for the pair is
  // max(cycles, shadow_cycles) — see effective_cycles().
  std::uint64_t shadow_cycles{0};
  RunCounters counters;
  // Host-side software-TLB statistics (cumulative across runs of the same
  // Machine). All zero when the TLB is disabled.
  paging::TlbStats tlb_stats;
  runtime::SegmentManager::Stats segment_stats;
  runtime::CashHeap::Stats heap_stats;
  kernel::KernelAccount kernel_account;
  // Per-site hit/injection counts for the machine's fault injector (all
  // zero when config.fault_plan is empty).
  faultinject::FaultStats fault_stats;
  // Host-side hot-trace statistics (cumulative across runs of the same
  // Machine and rewound by restore(); coverage per-run). Like tlb_stats,
  // exempt from the bit-identity contract: turning the trace engine on or
  // off changes these and nothing else.
  TraceStats trace_stats;
  std::map<std::string, FunctionProfile> profile; // per-function self costs
  std::string output;             // print_int / print_float stream

  // Wall-clock cycles of the whole system: the main CPU, or — in shadow
  // mode — whichever of the two processors is the bottleneck.
  std::uint64_t effective_cycles() const noexcept {
    return cycles > shadow_cycles ? cycles : shadow_cycles;
  }

  // True when the run was aborted by a bound violation (hardware #GP/#SS
  // from a segment-limit check, a software check, a `bound` #BR, or an
  // Electric-Fence guard-page #PF).
  bool bound_violation() const noexcept {
    return fault.has_value() &&
           (fault->kind == FaultKind::kGeneralProtection ||
            fault->kind == FaultKind::kStackFault ||
            fault->kind == FaultKind::kBoundRange ||
            fault->kind == FaultKind::kPageFault);
  }
};
// Every member is under the bit-identity contract but the two host-side
// ones (common/run_result_compare.hpp).
#define CASH_RUN_RESULT_FIELDS(X, HOST)                                   \
  X(ok) X(fault) X(error) X(exit_code) X(cycles) X(breakdown)             \
  X(shadow_cycles) X(counters) HOST(tlb_stats) X(segment_stats)           \
  X(heap_stats) X(kernel_account) X(fault_stats) HOST(trace_stats)        \
  X(profile) X(output)
CASH_STATS_SCHEMA(RunResult, CASH_RUN_RESULT_FIELDS)

// The simulated Pentium-III machine: segmentation + paging MMU, a simulated
// Linux kernel, the Cash user-space runtime, and an IR interpreter with the
// paper's cycle cost model. One Machine executes one program run.
class Machine {
 public:
  // `predecoded` optionally attaches the pre-decoded micro-op image built
  // by CompiledProgram (which owns it and must outlive the Machine). Null —
  // or config.enable_predecode == false — selects the reference
  // interpreter.
  Machine(const ir::Module& module, MachineConfig config,
          const DecodedProgram* predecoded = nullptr);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Runs `main()` (already lowered for the configured mode) and returns the
  // result. A Machine can run main multiple times; cycles accumulate into
  // each result separately but global/heap state persists.
  RunResult run();

  // Runs an arbitrary zero-argument function (netsim request handlers).
  RunResult run_function(const std::string& name);

  // Performs the one-time program load (globals placement + per-array
  // set-up) without running anything. The set-up cycles stay pending and
  // are charged to the next run, exactly as on a fresh machine's first
  // run — so prepare() + capture() + restore() + run() is bit-identical to
  // a fresh run. perfbench's `kernels` workload and the engine-grid tests
  // (tests/vm/engine_grid_test.cpp) use this to snapshot the post-load
  // image once and restore per run instead of rebuilding the machine.
  // Idempotent; implied by the first run if never called.
  void prepare();

  // Reseeds the deterministic rand() builtin — netsim uses this to vary the
  // request each simulated fork handles.
  void reseed(std::uint32_t seed);

  // Replaces the fault-injection plan with `plan`, rebuilding the injector
  // from scratch (fresh RNG stream mixed from (plan.seed, seed), zero hit
  // counters) — exactly the injector a machine constructed with this plan
  // and rng_seed would start with. netsim uses this to arm forked children
  // at the fork point: the parent image is captured unarmed, and after each
  // restore() the child is re-armed with its per-request seed, making
  // fork-from-snapshot bit-identical to building an armed machine fresh.
  void arm_faults(const faultinject::FaultPlan& plan, std::uint32_t seed);

  // Captures the complete simulated-machine state — registers, globals,
  // kernel/LDT state, runtime allocators, physical frames — and arms
  // dirty-frame tracking so a later restore() copies back only what changed
  // since. netsim uses this to serve each request from the post-server_init
  // image instead of rebuilding the machine (vm/snapshot.hpp).
  std::unique_ptr<MachineSnapshot> capture();

  // Rewinds the machine to `snap`, which must be this machine's most recent
  // capture (each capture() re-arms the dirty baselines, invalidating older
  // snapshots). All simulated state is rewound bit-exactly; the host-side
  // TLB statistics keep accumulating (they are explicitly host-only, like
  // RunResult::tlb_stats), and formed hot traces stay formed (only
  // TraceStats rewinds).
  void restore(const MachineSnapshot& snap);

  x86seg::SegmentationUnit& segmentation() noexcept;
  runtime::SegmentManager& segment_manager() noexcept;
  mmu::Mmu& mmu() noexcept;

  // The machine's first-class process handle: its pid inside the owned
  // kernel. Drivers attach it to the kernel's round-robin scheduler
  // (kernel().sched_attach(pid())) to run the machine as one tenant of a
  // multi-process simulation; capture()/restore() round-trips scheduler
  // state through KernelSim::ProcessSnapshot.
  kernel::Pid pid() const noexcept;
  kernel::KernelSim& kernel() noexcept;

  // The hot-trace cache, one entry per DecodedProgram function; empty
  // until a traced run. Read-only, for tests of what traces form.
  const std::vector<FnTraceState>& trace_cache() const noexcept;

  struct Impl; // internal (vm/machine_impl.hpp)

 private:
  std::unique_ptr<Impl> impl_;
};

} // namespace cash::vm
