// Machine snapshot/restore (vm/snapshot.hpp): restoring the post-init
// image must be indistinguishable from building a fresh machine and
// replaying the init — the contract netsim's fork-from-snapshot path rests
// on. Covered here at machine level: repeated restores, global/heap/RNG
// rollback, armed fault plans (injector state rewinds too), Electric-Fence
// guard pages, and both execution engines.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cash.hpp"
#include "vm/snapshot.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;
using vm::expect_identical;

constexpr const char* kServer = R"(
int table[32];
int hits;
int *scratch;
int server_init() {
  int i;
  for (i = 0; i < 32; i++) { table[i] = i * 3; }
  scratch = malloc(64);
  return 0;
}
int handle_request() {
  int buf[16];
  int i; int n; int s;
  hits = hits + 1;
  n = rand() % 8 + 4;
  s = 0;
  for (i = 0; i < 16; i++) {
    buf[i] = table[(i + n) % 32];
    scratch[i % 16] = buf[i] + hits;
    s = s + buf[i] + scratch[i % 16];
  }
  return s + hits;
}
int main() { server_init(); return handle_request(); }
)";

std::unique_ptr<CompiledProgram> compile_server(CheckMode mode,
                                                bool predecode = true) {
  CompileOptions options;
  options.lower.mode = mode;
  options.machine.enable_predecode = predecode;
  CompileResult compiled = compile(kServer, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return std::move(compiled.program);
}

// Fresh machine + server_init replay: the reference way to materialise the
// post-init parent image (what netsim's replay path does per request).
std::unique_ptr<vm::Machine> fresh_after_init(const CompiledProgram& program) {
  std::unique_ptr<vm::Machine> m = program.make_machine();
  const vm::RunResult init = m->run_function("server_init");
  EXPECT_TRUE(init.ok) << (init.fault ? init.fault->detail : init.error);
  return m;
}

TEST(Snapshot, RestoreEqualsFreshReplay) {
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kBcc,
                         CheckMode::kCash, CheckMode::kShadow}) {
    auto program = compile_server(mode);
    std::unique_ptr<vm::Machine> snap_machine = fresh_after_init(*program);
    std::unique_ptr<vm::MachineSnapshot> snap = snap_machine->capture();

    // Serve "requests" 0..4 from the one machine via restore; compare each
    // against a brand-new machine that replays server_init.
    for (std::uint32_t seed = 0; seed < 5; ++seed) {
      if (seed != 0) {
        snap_machine->restore(*snap);
      }
      snap_machine->reseed(100 + seed);
      const vm::RunResult from_snapshot =
          snap_machine->run_function("handle_request");

      std::unique_ptr<vm::Machine> replayed = fresh_after_init(*program);
      replayed->reseed(100 + seed);
      const vm::RunResult from_replay =
          replayed->run_function("handle_request");

      expect_identical(from_replay, from_snapshot,
                       "seed=" + std::to_string(100 + seed));
      EXPECT_TRUE(from_snapshot.ok);
    }
  }
}

TEST(Snapshot, RollsBackGlobalsHeapAndRng) {
  // Without restore, the handler's global counter and heap writes leak into
  // the next run (that is what the replay path avoids by rebuilding). With
  // restore, every run is the first run.
  auto program = compile_server(CheckMode::kCash);
  std::unique_ptr<vm::Machine> m = fresh_after_init(*program);
  std::unique_ptr<vm::MachineSnapshot> snap = m->capture();

  m->reseed(7);
  const vm::RunResult first = m->run_function("handle_request");
  ASSERT_TRUE(first.ok);

  // No restore: `hits` has advanced, results differ.
  m->reseed(7);
  const vm::RunResult dirty = m->run_function("handle_request");
  ASSERT_TRUE(dirty.ok);
  EXPECT_NE(first.exit_code, dirty.exit_code);

  // Restore: bit-identical to the first run, as often as we like.
  for (int i = 0; i < 3; ++i) {
    m->restore(*snap);
    m->reseed(7);
    const vm::RunResult again = m->run_function("handle_request");
    expect_identical(first, again, "restore " + std::to_string(i));
  }
}

TEST(Snapshot, WorksUnderArmedFaultPlan) {
  // The injector's RNG and hit counters are part of the snapshot: a
  // restored machine must replay the same injected-fault pattern a fresh
  // machine would.
  faultinject::FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({faultinject::FaultSite::kSegCacheProbe, 0, 2, 0, 1});

  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  options.machine.fault_plan = plan;
  CompileResult compiled = compile(kServer, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const CompiledProgram& program = *compiled.program;

  std::unique_ptr<vm::Machine> snap_machine = fresh_after_init(program);
  std::unique_ptr<vm::MachineSnapshot> snap = snap_machine->capture();
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    if (seed != 0) {
      snap_machine->restore(*snap);
    }
    snap_machine->reseed(50 + seed);
    const vm::RunResult from_snapshot =
        snap_machine->run_function("handle_request");

    std::unique_ptr<vm::Machine> replayed = fresh_after_init(program);
    replayed->reseed(50 + seed);
    const vm::RunResult from_replay =
        replayed->run_function("handle_request");
    expect_identical(from_replay, from_snapshot,
                     "armed seed=" + std::to_string(50 + seed));
    EXPECT_GT(from_snapshot.fault_stats.hits_at(
                  faultinject::FaultSite::kSegCacheProbe),
              0u);
  }
}

TEST(Snapshot, EfenceGuardPagesRewind) {
  // Electric-Fence plants and clears guard pages per allocation; the PTE
  // journal must rewind them so a restored machine faults (or not) exactly
  // like a fresh one.
  auto program = compile_server(CheckMode::kEfence);
  std::unique_ptr<vm::Machine> snap_machine = fresh_after_init(*program);
  std::unique_ptr<vm::MachineSnapshot> snap = snap_machine->capture();
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    if (seed != 0) {
      snap_machine->restore(*snap);
    }
    snap_machine->reseed(seed);
    const vm::RunResult from_snapshot =
        snap_machine->run_function("handle_request");

    std::unique_ptr<vm::Machine> replayed = fresh_after_init(*program);
    replayed->reseed(seed);
    const vm::RunResult from_replay =
        replayed->run_function("handle_request");
    expect_identical(from_replay, from_snapshot,
                     "efence seed=" + std::to_string(seed));
  }
}

TEST(Snapshot, ComposesWithBothEngines) {
  // capture/restore must not care which engine runs between them.
  for (bool predecode : {true, false}) {
    auto program = compile_server(CheckMode::kCash, predecode);
    std::unique_ptr<vm::Machine> m = fresh_after_init(*program);
    std::unique_ptr<vm::MachineSnapshot> snap = m->capture();
    m->reseed(9);
    const vm::RunResult first = m->run_function("handle_request");
    m->restore(*snap);
    m->reseed(9);
    const vm::RunResult again = m->run_function("handle_request");
    expect_identical(first, again,
                     std::string("predecode=") + (predecode ? "on" : "off"));
  }
}

TEST(Snapshot, RecaptureRebaselines) {
  // A machine tracks against its most recent capture: capture, mutate,
  // capture again — restores rewind to the *second* image.
  auto program = compile_server(CheckMode::kCash);
  std::unique_ptr<vm::Machine> m = fresh_after_init(*program);
  std::unique_ptr<vm::MachineSnapshot> first = m->capture();
  m->reseed(1);
  const vm::RunResult warm = m->run_function("handle_request");
  ASSERT_TRUE(warm.ok);
  (void)first;

  std::unique_ptr<vm::MachineSnapshot> second = m->capture();
  m->reseed(2);
  const vm::RunResult a = m->run_function("handle_request");
  m->restore(*second);
  m->reseed(2);
  const vm::RunResult b = m->run_function("handle_request");
  expect_identical(a, b, "recapture");
}

TEST(Snapshot, PrepareCaptureRestoreEqualsFreshRun) {
  // The restore+run contract (see tests/vm/engine_grid_test.cpp): prepare()
  // performs the one-time program load but keeps the set-up cycles pending,
  // so prepare() + capture() + restore() + run() must be bit-identical to a
  // fresh machine's first full run — including the runtime breakdown that
  // books the program/array set-up. Repeated restore+run cycles must all
  // replay that first run exactly.
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kBcc,
                         CheckMode::kCash, CheckMode::kBoundInsn,
                         CheckMode::kEfence, CheckMode::kShadow}) {
    auto program = compile_server(mode);
    const vm::RunResult fresh = program->make_machine()->run();

    std::unique_ptr<vm::Machine> m = program->make_machine();
    m->prepare();
    m->prepare(); // idempotent
    std::unique_ptr<vm::MachineSnapshot> snap = m->capture();
    for (int rep = 0; rep < 3; ++rep) {
      m->restore(*snap);
      const vm::RunResult warm = m->run();
      expect_identical(fresh, warm,
                       "prepare/restore rep=" + std::to_string(rep));
    }
  }
}

TEST(Snapshot, RestoreUnderActiveSchedulerEqualsFreshReplay) {
  // netsim's fork-from-snapshot under multi-tenant serving: the parent is
  // captured while its process sits on the run queue, mid-quantum. The
  // scheduler scalars ride the snapshot, so a restore rewinds quantum
  // progress, run-queue membership and the scheduling aggregates along
  // with the memory image — and the served request stays bit-identical to
  // a fresh replay on an unscheduled kernel.
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kBcc,
                         CheckMode::kCash}) {
    auto program = compile_server(mode);
    std::unique_ptr<vm::Machine> m = fresh_after_init(*program);
    kernel::KernelSim& kern = m->kernel();
    kern.sched_configure({4096});
    kern.sched_attach(m->pid());
    kern.sched_charge(1234); // capture lands mid-quantum
    ASSERT_EQ(kern.sched_quantum_used(), 1234u);

    std::unique_ptr<vm::MachineSnapshot> snap = m->capture();
    const kernel::SchedulerStats at_capture = kern.sched_stats();

    for (std::uint32_t seed = 0; seed < 3; ++seed) {
      if (seed != 0) {
        m->restore(*snap);
      }
      m->reseed(200 + seed);
      const vm::RunResult from_snapshot =
          m->run_function("handle_request");

      std::unique_ptr<vm::Machine> replayed = fresh_after_init(*program);
      replayed->reseed(200 + seed);
      const vm::RunResult from_replay =
          replayed->run_function("handle_request");
      expect_identical(from_replay, from_snapshot,
                       "sched seed=" + std::to_string(200 + seed));

      // Perturb the scheduler between serves: burn quanta, then drop off
      // the run queue entirely. The next restore must undo all of it.
      kern.sched_charge(9000);
      kern.sched_detach(m->pid());
      EXPECT_FALSE(kern.sched_attached(m->pid()));
    }
    m->restore(*snap);
    EXPECT_TRUE(kern.sched_attached(m->pid()));
    EXPECT_EQ(kern.sched_quantum_used(), 1234u);
    EXPECT_EQ(kern.sched_stats(), at_capture);
  }
}

TEST(Snapshot, SchedulerComposesWithArmedFaultPlan) {
  // Mid-quantum capture plus an armed injector: both the scheduler scalars
  // and the injector RNG/hit counters must rewind together.
  faultinject::FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({faultinject::FaultSite::kSegCacheProbe, 0, 2, 0, 1});

  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  options.machine.fault_plan = plan;
  CompileResult compiled = compile(kServer, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const CompiledProgram& program = *compiled.program;

  std::unique_ptr<vm::Machine> m = fresh_after_init(program);
  kernel::KernelSim& kern = m->kernel();
  kern.sched_configure({512});
  kern.sched_attach(m->pid());
  kern.sched_charge(100);
  std::unique_ptr<vm::MachineSnapshot> snap = m->capture();

  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    if (seed != 0) {
      m->restore(*snap);
    }
    m->reseed(70 + seed);
    const vm::RunResult from_snapshot = m->run_function("handle_request");

    std::unique_ptr<vm::Machine> replayed = fresh_after_init(program);
    replayed->reseed(70 + seed);
    const vm::RunResult from_replay =
        replayed->run_function("handle_request");
    expect_identical(from_replay, from_snapshot,
                     "sched armed seed=" + std::to_string(70 + seed));
    EXPECT_GT(from_snapshot.fault_stats.hits_at(
                  faultinject::FaultSite::kSegCacheProbe),
              0u);
    EXPECT_EQ(kern.sched_quantum_used(), 100u);
  }
}

TEST(Snapshot, FaultingRunRewindsCleanly) {
  // A run that ends in a bound violation leaves partially-mutated state;
  // restore must rewind that too.
  constexpr const char* kFaulty = R"(
int buf[8];
int server_init() {
  int i;
  for (i = 0; i < 8; i++) { buf[i] = i; }
  return 0;
}
int handle_request() {
  int i;
  for (i = 0; i < 20; i++) { buf[i] = i; }
  return 0;
}
int main() { return 0; }
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kFaulty, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  std::unique_ptr<vm::Machine> m = compiled.program->make_machine();
  ASSERT_TRUE(m->run_function("server_init").ok);
  std::unique_ptr<vm::MachineSnapshot> snap = m->capture();

  const vm::RunResult crash1 = m->run_function("handle_request");
  EXPECT_TRUE(crash1.fault.has_value());
  m->restore(*snap);
  const vm::RunResult crash2 = m->run_function("handle_request");
  expect_identical(crash1, crash2, "faulting run");
}

TEST(Snapshot, CapturesMidTraceFormation) {
  // The hot-trace engine's state — per-block heat counters, formed
  // superblocks, lifetime stats — is part of the snapshot. kServer's init
  // loop (32 iterations) is past the formation threshold (16) when
  // capture() runs, while handle_request's loop is still cold: restoring
  // must put both halves of that mid-formation picture back exactly, so
  // every restore replays the fresh-replay trajectory bit for bit,
  // including the trace activity itself.
  for (CheckMode mode : {CheckMode::kNoCheck, CheckMode::kCash,
                         CheckMode::kShadow}) {
    auto program = compile_server(mode);
    ASSERT_TRUE(program->options().machine.enable_trace);
    std::unique_ptr<vm::Machine> m = fresh_after_init(*program);
    std::unique_ptr<vm::MachineSnapshot> snap = m->capture();

    bool any_trace = false;
    for (std::uint32_t seed = 0; seed < 4; ++seed) {
      if (seed != 0) {
        m->restore(*snap);
      }
      m->reseed(40 + seed);
      const vm::RunResult from_snapshot = m->run_function("handle_request");

      std::unique_ptr<vm::Machine> replayed = fresh_after_init(*program);
      replayed->reseed(40 + seed);
      const vm::RunResult from_replay =
          replayed->run_function("handle_request");

      const std::string ctx = "mode=" + std::to_string(static_cast<int>(mode)) +
                              " seed=" + std::to_string(40 + seed);
      expect_identical(from_replay, from_snapshot, ctx);
      // trace_stats is exempt from expect_identical (host-side, like
      // tlb_stats) — pin it explicitly: restored trace state must replay
      // the same formation/execution trajectory a fresh machine produces.
      EXPECT_EQ(from_replay.trace_stats.traces_formed,
                from_snapshot.trace_stats.traces_formed)
          << ctx;
      EXPECT_EQ(from_replay.trace_stats.trace_execs,
                from_snapshot.trace_stats.trace_execs)
          << ctx;
      EXPECT_EQ(from_replay.trace_stats.guard_exits,
                from_snapshot.trace_stats.guard_exits)
          << ctx;
      EXPECT_EQ(from_replay.trace_stats.trace_instructions,
                from_snapshot.trace_stats.trace_instructions)
          << ctx;
      any_trace |= from_snapshot.trace_stats.trace_execs > 0;
    }
    // The warm-started machine actually runs inside superblocks — the
    // comparison above is not vacuous.
    EXPECT_TRUE(any_trace) << "mode=" << static_cast<int>(mode);
  }
}

} // namespace
} // namespace cash
