// FaultInjector unit tests: deterministic rule matching, seeded replay,
// JSON (de)serialisation, and the bit-transparency contract — an empty (or
// never-firing) plan must not perturb a machine run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/cash.hpp"
#include "faultinject/faultinject.hpp"
#include "netsim/netsim.hpp"
#include "vm/machine.hpp"
#include "vm/snapshot.hpp"
#include "workloads/chaos.hpp"
#include "workloads/tenants.hpp"
#include "workloads/workloads.hpp"

namespace cash::faultinject {
namespace {

TEST(FaultInjector, EmptyPlanIsUnarmedAndCountsNothing) {
  FaultInjector injector(FaultPlan{}, 42);
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_inject(FaultSite::kSegAllocate));
  }
  EXPECT_EQ(injector.stats().total(), 0U);
  EXPECT_EQ(injector.stats().hits_at(FaultSite::kSegAllocate), 0U);
}

TEST(FaultInjector, StartPeriodAndMaxFires) {
  FaultPlan plan;
  // Fire on hits 2, 5, 8 (start 2, period 3), at most 3 times.
  plan.rules.push_back({FaultSite::kHeapAlloc, 2, 3, 3, 1});
  FaultInjector injector(plan, 1);
  EXPECT_TRUE(injector.armed());
  std::string pattern;
  for (int i = 0; i < 12; ++i) {
    pattern += injector.should_inject(FaultSite::kHeapAlloc) ? '1' : '0';
  }
  EXPECT_EQ(pattern, "001001001000");
  EXPECT_EQ(injector.stats().injected_at(FaultSite::kHeapAlloc), 3U);
  EXPECT_EQ(injector.stats().hits_at(FaultSite::kHeapAlloc), 12U);
}

TEST(FaultInjector, SitesAreIndependent) {
  FaultPlan plan;
  plan.rules.push_back({FaultSite::kSegAllocate, 0, 1, 0, 1});
  FaultInjector injector(plan, 1);
  // A rule for one site never fires at another, but hits are counted.
  EXPECT_FALSE(injector.should_inject(FaultSite::kCallGateBusy));
  EXPECT_TRUE(injector.should_inject(FaultSite::kSegAllocate));
  EXPECT_EQ(injector.stats().hits_at(FaultSite::kCallGateBusy), 1U);
  EXPECT_EQ(injector.stats().injected_at(FaultSite::kCallGateBusy), 0U);
  EXPECT_EQ(injector.stats().injected_at(FaultSite::kSegAllocate), 1U);
}

TEST(FaultInjector, ProbabilisticRuleReplaysIdentically) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rules.push_back({FaultSite::kNetRequestTimeout, 0, 1, 0, 3});
  auto pattern_with = [&](std::uint32_t seed) {
    FaultInjector injector(plan, seed);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern +=
          injector.should_inject(FaultSite::kNetRequestTimeout) ? '1' : '0';
    }
    return pattern;
  };
  const std::string first = pattern_with(7);
  EXPECT_EQ(first, pattern_with(7)); // same seed: identical replay
  EXPECT_NE(first, pattern_with(8)); // different seed: different pattern
  EXPECT_NE(first.find('1'), std::string::npos); // one_in=3 fires sometimes
  EXPECT_NE(first.find('0'), std::string::npos); // ... but not always
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.net_retry_budget = 5;
  plan.rules.push_back({FaultSite::kSegAllocate, 1, 3, 0, 1});
  plan.rules.push_back({FaultSite::kCallGateBusy, 0, 1, 7, 2});
  plan.rules.push_back({FaultSite::kNetRequestTimeout, 4, 2, 1, 9});
  plan.rules.push_back({FaultSite::kLdtCrossTenant, 0, 2, 3, 1});

  const std::string json = plan.to_json();
  FaultPlan parsed;
  ASSERT_TRUE(FaultPlan::from_json(json, &parsed)) << json;
  EXPECT_EQ(parsed, plan);
}

TEST(FaultPlan, FromJsonRejectsMalformedInput) {
  FaultPlan out;
  EXPECT_FALSE(FaultPlan::from_json("", &out));
  EXPECT_FALSE(FaultPlan::from_json("{", &out));
  EXPECT_FALSE(FaultPlan::from_json("[]", &out));
  EXPECT_FALSE(FaultPlan::from_json(R"({"seed": -1, "rules": []})", &out));
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"seed": 0, "rules": [{"site": "no-such-site"}]})", &out));
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"seed": 0, "bogus_key": 1, "rules": []})", &out));
  EXPECT_FALSE(
      FaultPlan::from_json(R"({"seed": 0, "rules": []} trailing)", &out));
}

TEST(FaultPlan, SiteNamesRoundTrip) {
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    FaultSite parsed{};
    ASSERT_TRUE(site_from_string(to_string(site), &parsed)) << s;
    EXPECT_EQ(parsed, site);
  }
  FaultSite parsed{};
  EXPECT_FALSE(site_from_string("not-a-site", &parsed));
}

// --- Bit-transparency at the machine level --------------------------------

constexpr const char* kProbeProgram = R"(
int g[16];
int main() {
  int *p;
  int i;
  int sum = 0;
  p = malloc(32);
  for (i = 0; i < 16; i = i + 1) {
    g[i] = i * 3;
  }
  for (i = 0; i < 8; i = i + 1) {
    p[i] = g[i + 4];
    sum = sum + p[i];
  }
  free(p);
  print_int(sum);
  return sum;
}
)";

vm::RunResult run_with_plan(const CompiledProgram& program,
                            const FaultPlan& plan) {
  vm::MachineConfig cfg = program.options().machine;
  cfg.fault_plan = plan;
  return program.make_machine(cfg)->run();
}

// Everything simulated must match; host-side fault_stats bookkeeping is
// compared separately where relevant.
void expect_simulated_identical(const vm::RunResult& a,
                                const vm::RunResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.breakdown.base, b.breakdown.base);
  EXPECT_EQ(a.breakdown.checking, b.breakdown.checking);
  EXPECT_EQ(a.breakdown.runtime, b.breakdown.runtime);
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.hw_checked_accesses, b.counters.hw_checked_accesses);
  EXPECT_EQ(a.counters.sw_checks, b.counters.sw_checks);
  EXPECT_EQ(a.segment_stats.alloc_requests, b.segment_stats.alloc_requests);
  EXPECT_EQ(a.segment_stats.cache_hits, b.segment_stats.cache_hits);
  EXPECT_EQ(a.segment_stats.global_fallbacks,
            b.segment_stats.global_fallbacks);
  EXPECT_EQ(a.heap_stats.malloc_calls, b.heap_stats.malloc_calls);
  EXPECT_EQ(a.kernel_account.kernel_cycles, b.kernel_account.kernel_cycles);
}

TEST(FaultInjectTransparency, EmptyPlanIsBitIdenticalToDefaultConfig) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  const vm::RunResult plain = compiled.program->run();
  const vm::RunResult empty =
      run_with_plan(*compiled.program, FaultPlan{});
  ASSERT_TRUE(plain.ok);
  expect_simulated_identical(plain, empty);
  EXPECT_EQ(empty.fault_stats.total(), 0U);
  // The unarmed fast path must not even count hits.
  EXPECT_EQ(empty.fault_stats.hits_at(FaultSite::kSegAllocate), 0U);
}

TEST(FaultInjectTransparency, NeverFiringPlanOnlyAddsHitCounts) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  FaultPlan dormant;
  dormant.rules.push_back(
      {FaultSite::kSegAllocate, 1u << 30, 1, 0, 1}); // starts far too late
  const vm::RunResult plain = compiled.program->run();
  const vm::RunResult armed = run_with_plan(*compiled.program, dormant);
  ASSERT_TRUE(plain.ok);
  expect_simulated_identical(plain, armed);
  EXPECT_EQ(armed.fault_stats.total(), 0U);
  // Armed, so sites are probed — hits recorded, nothing injected.
  EXPECT_GT(armed.fault_stats.hits_at(FaultSite::kSegAllocate), 0U);
}

TEST(FaultInjectTransparency, EmptyAndDormantPlansServeLikeNoPlan) {
  // The serving loop of the first network app under Cash: an empty plan
  // gives exactly the no-plan ServerMetrics, and so does an armed plan
  // whose rules never fire, cycles and percentiles included.
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled =
      compile(workloads::network_suite().front().source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const netsim::ServerMetrics clean =
      netsim::serve_requests(*compiled.program, 40, 1, {1});
  FaultPlan dormant;
  dormant.rules.push_back({FaultSite::kNetRequestTimeout, 1u << 30, 1, 0, 1});
  dormant.rules.push_back({FaultSite::kSegAllocate, 1u << 30, 1, 0, 1});
  for (const FaultPlan& plan : {FaultPlan{}, dormant}) {
    const netsim::ServerMetrics served =
        netsim::serve_requests(*compiled.program, 40, 1, {1}, plan);
    EXPECT_EQ(netsim::first_metrics_difference(clean, served), "")
        << plan.rules.size() << " rules";
    EXPECT_EQ(served.faults_injected, 0u);
  }
}

TEST(FaultInjectReplay, NonEmptyPlanReplaysIdentically) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({FaultSite::kSegAllocate, 0, 2, 0, 2});
  plan.rules.push_back({FaultSite::kCallGateBusy, 1, 2, 0, 1});
  const vm::RunResult first = run_with_plan(*compiled.program, plan);
  const vm::RunResult second = run_with_plan(*compiled.program, plan);
  expect_simulated_identical(first, second);
  EXPECT_EQ(first.fault_stats.total(), second.fault_stats.total());
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    EXPECT_EQ(first.fault_stats.hits_at(site),
              second.fault_stats.hits_at(site));
    EXPECT_EQ(first.fault_stats.injected_at(site),
              second.fault_stats.injected_at(site));
  }
}

TEST(FaultInjectMachine, InjectedHeapExhaustionIsAStructuredFault) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  FaultPlan plan;
  plan.rules.push_back({FaultSite::kHeapAlloc, 0, 1, 0, 1});
  const vm::RunResult run = run_with_plan(*compiled.program, plan);
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.error.empty()); // structured, not an untyped string
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kResourceExhausted);
  EXPECT_NE(run.fault->detail.find("simulated heap exhausted"),
            std::string::npos);
  EXPECT_EQ(run.fault_stats.injected_at(FaultSite::kHeapAlloc), 1U);
}

TEST(FaultInjectMachine, InjectedFrameExhaustionIsAStructuredFault) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  FaultPlan plan;
  plan.rules.push_back({FaultSite::kPhysFrameAlloc, 0, 1, 0, 1});
  const vm::RunResult run = run_with_plan(*compiled.program, plan);
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.error.empty());
  ASSERT_TRUE(run.fault.has_value());
  EXPECT_EQ(run.fault->kind, FaultKind::kResourceExhausted);
  EXPECT_NE(run.fault->detail.find("physical memory exhausted"),
            std::string::npos);
}

TEST(FaultInjectMachine, InjectedLdtExhaustionCompletesViaGlobalFallback) {
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  const vm::RunResult reference = compiled.program->run();
  ASSERT_TRUE(reference.ok);

  FaultPlan plan;
  plan.rules.push_back({FaultSite::kSegAllocate, 0, 1, 0, 1});
  const vm::RunResult run = run_with_plan(*compiled.program, plan);
  // Unchecked but correct: the global segment imposes no bounds, so the
  // in-bounds program completes with the reference output.
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.output, reference.output);
  EXPECT_EQ(run.exit_code, reference.exit_code);
  EXPECT_GT(run.segment_stats.global_fallbacks, 0U);
  EXPECT_EQ(run.segment_stats.kernel_allocs, 0U);
  // The rebased accesses still run through the segmentation hardware — only
  // now against the global segment's (no-op) limit, so the access count is
  // unchanged while the protection is gone.
  EXPECT_EQ(run.counters.hw_checked_accesses,
            reference.counters.hw_checked_accesses);
}

TEST(FaultInjectMachine, InjectedCrossTenantBudgetExhaustionDegrades) {
  // kLdtCrossTenant simulates co-tenants having drained the shared LDT
  // slot budget: the kernel refuses the fresh install *after* the gate
  // charge and user space degrades to the unchecked global segment. The
  // in-bounds program still completes with the reference output, and the
  // refusals are attributed to budget_fallbacks. Deterministic: a second
  // run replays bit-identically.
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  const vm::RunResult reference = compiled.program->run();
  ASSERT_TRUE(reference.ok);

  FaultPlan plan;
  plan.rules.push_back({FaultSite::kLdtCrossTenant, 0, 2, 0, 1});
  const vm::RunResult run = run_with_plan(*compiled.program, plan);
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.output, reference.output);
  EXPECT_EQ(run.exit_code, reference.exit_code);
  EXPECT_GT(run.segment_stats.budget_fallbacks, 0U);
  EXPECT_GE(run.segment_stats.global_fallbacks,
            run.segment_stats.budget_fallbacks);
  EXPECT_GT(run.fault_stats.injected_at(FaultSite::kLdtCrossTenant), 0U);

  const vm::RunResult replay = run_with_plan(*compiled.program, plan);
  expect_simulated_identical(run, replay);
  EXPECT_EQ(replay.segment_stats.budget_fallbacks,
            run.segment_stats.budget_fallbacks);
}

TEST(ChaosMatrix, LdtCrossTenantPlanDegradesButCompletes) {
  // The chaos matrix carries an ldt-cross-tenant plan; its cells must
  // complete with matching output, show injected faults, and register as
  // degraded (global fallbacks above the clean reference).
  const auto& plans = workloads::chaos_plans();
  const bool registered =
      std::any_of(plans.begin(), plans.end(), [](const auto& spec) {
        return spec.name == "ldt-cross-tenant";
      });
  ASSERT_TRUE(registered);

  const workloads::ChaosReport report = workloads::run_chaos_matrix(1, 3, {2});
  EXPECT_EQ(report.violations, 0u);
  int seen = 0;
  for (const workloads::ChaosCell& cell : report.cells) {
    if (cell.plan != "ldt-cross-tenant") {
      continue;
    }
    ++seen;
    EXPECT_TRUE(cell.ok()) << cell.detail;
    EXPECT_TRUE(cell.completed) << "seed " << cell.seed;
    EXPECT_TRUE(cell.output_matches) << "seed " << cell.seed;
    EXPECT_TRUE(cell.degraded) << "seed " << cell.seed;
    EXPECT_GT(cell.faults_injected, 0u) << "seed " << cell.seed;
  }
  EXPECT_EQ(seen, 2);
}

TEST(TenantIsolation, NeighborsOfChaoticTenantMatchSoloBaselines) {
  // The multi-tenant differential: tenant 0 runs under an armed
  // ldt-cross-tenant plan on the shared kernel; every neighbor's record
  // must be bit-identical to the record it produces alone on a private
  // kernel, and every cross-process selector probe must be refused.
  workloads::TenantOptions opt;
  opt.processes = 3;
  opt.arrays_per_process = 20;
  opt.rounds = 2;
  opt.quantum_cycles = 900;
  opt.seed = 31;
  opt.tenant0_plan.rules.push_back({FaultSite::kLdtCrossTenant, 0, 2, 0, 1});

  const workloads::TenantCell cell = workloads::run_tenant_cell(opt);
  ASSERT_EQ(cell.tenants.size(), 3u);
  EXPECT_GT(cell.tenants[0].faults_injected, 0u);
  EXPECT_GT(cell.tenants[0].seg.budget_fallbacks, 0u);
  for (int i = 0; i < opt.processes; ++i) {
    const workloads::TenantRecord& in_cell =
        cell.tenants[static_cast<std::size_t>(i)];
    EXPECT_EQ(in_cell.probe_self_failures, 0u) << "tenant " << i;
    EXPECT_EQ(in_cell.probe_rejections, in_cell.probe_attempts)
        << "tenant " << i;
    const workloads::TenantRecord solo = workloads::run_tenant_solo(opt, i);
    EXPECT_EQ(in_cell, solo) << "tenant " << i;
  }
  // Unarmed neighbors saw no chaos at all.
  EXPECT_EQ(cell.tenants[1].faults_injected, 0u);
  EXPECT_EQ(cell.tenants[2].faults_injected, 0u);
}

TEST(TenantBudget, BudgetedCellBindsWithinItsBudget) {
  // Four tenants want far more LDT slots than the shared budget of 40: the
  // budget binds (installs fall back to the global segment) and is not
  // overrun.
  workloads::TenantOptions opt;
  opt.processes = 4;
  opt.arrays_per_process = 24;
  opt.quantum_cycles = 2000;
  opt.ldt_slot_budget = 40;
  opt.rounds = 2;
  opt.seed = 17;
  const workloads::TenantCell cell = workloads::run_tenant_cell(opt);
  std::uint64_t fallbacks = 0;
  for (const workloads::TenantRecord& record : cell.tenants) {
    fallbacks += record.seg.budget_fallbacks;
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(cell.thrash_ratio, 0.0);
  EXPECT_LE(cell.ldt_slots_installed, opt.ldt_slot_budget);
}

// --- Re-arm semantics (armed fork-from-snapshot) --------------------------

TEST(FaultInjectRearm, CopyAssignmentSnapshotsAndRewindsHitCounters) {
  // Machine snapshots copy the injector wholesale; a later restore assigns
  // it back. That must rewind the per-site hit counters, the per-rule fire
  // counts, and the RNG stream — so the rewound injector replays the
  // decision suffix exactly.
  FaultPlan plan;
  plan.seed = 21;
  plan.rules.push_back({FaultSite::kSegAllocate, 1, 2, 3, 2});
  FaultInjector live(plan, 9);
  for (int i = 0; i < 5; ++i) {
    (void)live.should_inject(FaultSite::kSegAllocate);
  }
  const FaultInjector snapshot = live; // capture()
  std::string after_capture;
  for (int i = 0; i < 16; ++i) {
    after_capture +=
        live.should_inject(FaultSite::kSegAllocate) ? '1' : '0';
  }
  live = snapshot; // restore()
  EXPECT_EQ(live.stats().hits_at(FaultSite::kSegAllocate), 5U);
  std::string after_restore;
  for (int i = 0; i < 16; ++i) {
    after_restore +=
        live.should_inject(FaultSite::kSegAllocate) ? '1' : '0';
  }
  EXPECT_EQ(after_restore, after_capture);
}

TEST(FaultInjectRearm, RearmedInjectorMatchesFreshlySeededInjector) {
  // The armed serving loop restores an unarmed parent image and then
  // re-arms via in-place assignment from a freshly constructed injector.
  // The result must be indistinguishable from an injector built fresh with
  // the per-request plan/seed: zero counters, zero fires, same RNG stream.
  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({FaultSite::kNetRequestTimeout, 0, 1, 0, 3});
  plan.rules.push_back({FaultSite::kHeapAlloc, 2, 3, 2, 1});
  auto decisions = [&](FaultInjector& injector) {
    std::string pattern;
    for (int i = 0; i < 48; ++i) {
      pattern += injector.should_inject(FaultSite::kNetRequestTimeout)
                     ? 'T' : 't';
      pattern += injector.should_inject(FaultSite::kHeapAlloc) ? 'H' : 'h';
    }
    return pattern;
  };
  for (std::uint32_t request = 0; request < 4; ++request) {
    FaultPlan seeded = plan;
    seeded.seed = plan.seed + request;
    FaultInjector fresh(seeded, 1000);
    // A "used" injector standing in for the restored parent's: different
    // plan, counters already advanced.
    FaultPlan stale;
    stale.rules.push_back({FaultSite::kSegAllocate, 0, 1, 0, 1});
    FaultInjector rearmed(stale, 5);
    (void)rearmed.should_inject(FaultSite::kSegAllocate);
    rearmed = FaultInjector(seeded, 1000); // Machine::arm_faults
    EXPECT_EQ(rearmed.stats().total(), 0U);
    EXPECT_EQ(rearmed.stats().hits_at(FaultSite::kSegAllocate), 0U);
    EXPECT_EQ(decisions(rearmed), decisions(fresh)) << "request " << request;
  }
}

TEST(FaultInjectRearm, ArmAtForkPointMatchesRebuildAndArm) {
  // Machine-level pin for the serving loop's fork ordering. The parent
  // image (program load included) is materialised unarmed; each child is
  // armed at the fork point. Restoring that image and re-arming must give
  // the same run — cycles, stats, fault pattern — as rebuilding a fresh
  // unarmed machine and arming at the same point, for every request.
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  CompileResult compiled = compile(kProbeProgram, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({FaultSite::kSegAllocate, 0, 2, 0, 2});
  plan.rules.push_back({FaultSite::kCallGateBusy, 1, 2, 0, 1});

  const vm::MachineConfig cfg = compiled.program->options().machine;
  auto rebuilt = compiled.program->make_machine(cfg); // unarmed
  rebuilt->prepare();
  rebuilt->arm_faults(plan, cfg.rng_seed);
  const vm::RunResult reference = rebuilt->run_function("main");
  EXPECT_GT(reference.fault_stats.total(), 0U); // the plan actually bites

  auto forked = compiled.program->make_machine(cfg); // unarmed parent
  forked->prepare();
  auto snap = forked->capture();
  for (int request = 0; request < 3; ++request) {
    forked->restore(*snap);
    forked->arm_faults(plan, cfg.rng_seed);
    const vm::RunResult run = forked->run_function("main");
    expect_simulated_identical(reference, run);
    for (int s = 0; s < kNumFaultSites; ++s) {
      const FaultSite site = static_cast<FaultSite>(s);
      EXPECT_EQ(run.fault_stats.hits_at(site),
                reference.fault_stats.hits_at(site))
          << "request " << request;
      EXPECT_EQ(run.fault_stats.injected_at(site),
                reference.fault_stats.injected_at(site))
          << "request " << request;
    }
  }
}

} // namespace
} // namespace cash::faultinject
