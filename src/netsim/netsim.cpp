#include "netsim/netsim.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/costs.hpp"
#include "vm/snapshot.hpp"

namespace cash::netsim {

namespace {

// Everything one simulated forked child contributes to the aggregate
// metrics, in integer cycles/counts. Slots are pre-sized and written only
// by the worker owning the request index.
struct RequestSlot {
  std::uint64_t cycles{0};
  std::uint64_t checking_cycles{0};
  std::uint64_t sw_checks{0};
  std::uint64_t hw_checks{0};
  std::uint64_t segment_allocs{0};
  std::uint64_t cache_hits{0};
  std::uint64_t retries{0};
  std::uint64_t timeouts{0};
  std::uint64_t faults_injected{0};
  bool degraded{false};
  bool failed{false};
  std::string failure;
};

// Segment-stat baselines of the inherited parent image: the request
// reports deltas over them (segment stats are cumulative per machine).
struct InitBaseline {
  std::uint64_t allocs{0};
  std::uint64_t hits{0};
  std::uint64_t fallbacks{0};
  std::uint64_t gate_busy{0};
};

InitBaseline baseline_of(const vm::RunResult& init) {
  return {init.segment_stats.alloc_requests, init.segment_stats.cache_hits,
          init.segment_stats.global_fallbacks,
          init.segment_stats.gate_busy_retries};
}

// Host-side pool accounting shared by all worker threads. Plain commutative
// integer adds, so the totals are deterministic even though the update
// order is not (which is fine: PoolStats is exempt from the bit-identity
// contract anyway).
struct PoolAccum {
  std::atomic<std::uint64_t> machines_built{0};
  std::atomic<std::uint64_t> captures{0};
  std::atomic<std::uint64_t> restores{0};
  std::atomic<std::uint64_t> init_replays{0};

  PoolStats snapshot() const {
    return {machines_built.load(), captures.load(), restores.load(),
            init_replays.load()};
  }
};

// SplitMix-style avalanche (the same shape the fault injector uses) so the
// class draw and the arrival stream are unrelated to the request RNG seeds.
std::uint32_t mix32(std::uint32_t a, std::uint32_t b) {
  std::uint32_t x = a ^ (b * 0x9E3779B9U) ^ 0x85EBCA6BU;
  x ^= x >> 16;
  x *= 0x7FEB352DU;
  x ^= x >> 15;
  return x == 0 ? 1 : x;
}

std::uint32_t xorshift32(std::uint32_t x) {
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return x;
}

// Exact nearest-rank percentile of an ascending-sorted integer vector.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, int p) {
  if (sorted.empty()) {
    return 0;
  }
  std::size_t rank = (sorted.size() * static_cast<std::size_t>(p) + 99) / 100;
  if (rank == 0) {
    rank = 1;
  }
  return sorted[rank - 1];
}

std::vector<RequestClass> resolve_classes(const ServeOptions& serve) {
  if (!serve.classes.empty()) {
    return serve.classes;
  }
  return {RequestClass{"default", "handle_request", 1}};
}

// Deterministic weighted class draw for every request index, computed once
// up front so the workers (handler choice) and the reducer (per-class
// attribution) agree by construction.
std::vector<std::uint16_t> assign_classes(
    const std::vector<RequestClass>& classes, int requests,
    std::uint32_t seed_base) {
  std::vector<std::uint16_t> idx(static_cast<std::size_t>(requests), 0);
  if (classes.size() < 2) {
    return idx;
  }
  std::uint32_t total_weight = 0;
  for (const RequestClass& c : classes) {
    total_weight += static_cast<std::uint32_t>(c.weight > 0 ? c.weight : 0);
  }
  if (total_weight == 0) {
    return idx;
  }
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::uint32_t draw =
        mix32(seed_base, static_cast<std::uint32_t>(i)) % total_weight;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::uint32_t w =
          static_cast<std::uint32_t>(classes[c].weight > 0 ? classes[c].weight
                                                           : 0);
      if (draw < w) {
        idx[i] = static_cast<std::uint16_t>(c);
        break;
      }
      draw -= w;
    }
  }
  return idx;
}

// Reduces the slots into `metrics` in request-index order, entirely in
// integers; floating point enters only in the final derived values. The
// arrival/queueing simulation and the latency order statistics run here,
// serially, over the per-request integers — so every derived field is a
// pure function of the slots and bit-identical at any thread count.
ServerMetrics finalize(ServerMetrics& metrics,
                       const std::vector<RequestSlot>& slots,
                       const ServeOptions& serve, std::uint32_t seed_base,
                       const std::vector<RequestClass>& classes,
                       const std::vector<std::uint16_t>& class_idx) {
  const std::size_t n = slots.size();
  metrics.classes.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    metrics.classes[c].name = classes[c].name;
  }

  // Connection churn: every churn_period-th request opens a connection.
  auto connect_cost = [&](std::size_t i) -> std::uint64_t {
    return (serve.churn_period > 0 && i % serve.churn_period == 0)
               ? serve.connect_cycles
               : 0;
  };

  // Multi-tenant serving: per-request context-switch cost, charged when the
  // serving process changes tenant (= request class). Filled below — by the
  // queue loop (per simulated server) or by a sequential single-stream pass
  // — so it is a pure serial function of the slots and class assignment.
  const bool tenants_on = serve.tenant_processes && classes.size() > 1;
  std::vector<std::uint64_t> switch_cost(n, 0);

  // Arrival + FCFS queueing over `sim_servers` simulated server processes.
  // Starts are non-decreasing under FCFS (arrivals are sorted and freeing a
  // server never lowers the earliest-free time), so the waiting set is a
  // sorted deque of start times and admission is a binary search.
  std::vector<std::uint64_t> wait(n, 0);
  std::vector<bool> rejected(n, false);
  const bool queue_on =
      serve.sim_servers > 0 && serve.mean_interarrival_cycles > 0;
  std::uint64_t makespan = 0;
  if (queue_on) {
    std::uint32_t state = mix32(seed_base, 0xA11C0DEU);
    std::vector<std::uint64_t> server_free(
        static_cast<std::size_t>(serve.sim_servers), 0);
    // Tenant mode: which tenant's process each simulated server last ran
    // (-1 = fresh server, first request switches in for free).
    std::vector<int> server_tenant(
        static_cast<std::size_t>(serve.sim_servers), -1);
    std::deque<std::uint64_t> starts; // admitted, in start order
    std::uint64_t arrival = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) {
        state = xorshift32(state);
        arrival += state % (2 * serve.mean_interarrival_cycles + 1);
      }
      while (!starts.empty() && starts.front() <= arrival) {
        starts.pop_front();
      }
      if (serve.max_queue_depth > 0 &&
          starts.size() >= static_cast<std::size_t>(serve.max_queue_depth)) {
        rejected[i] = true;
        ++metrics.rejected_requests;
        continue;
      }
      std::size_t best = 0;
      for (std::size_t s = 1; s < server_free.size(); ++s) {
        if (server_free[s] < server_free[best]) {
          best = s;
        }
      }
      if (tenants_on) {
        const int tenant = class_idx[i];
        if (server_tenant[best] >= 0 && server_tenant[best] != tenant) {
          switch_cost[i] = costs::kContextSwitch;
        }
        server_tenant[best] = tenant;
      }
      const std::uint64_t start = std::max(arrival, server_free[best]);
      const std::uint64_t busy =
          slots[i].cycles + connect_cost(i) +
          kForkCycles * (1 + slots[i].retries) + switch_cost[i];
      server_free[best] = start + busy;
      makespan = std::max(makespan, server_free[best]);
      wait[i] = start - arrival;
      if (start > arrival) {
        starts.push_back(start);
      }
      const std::size_t depth =
          static_cast<std::size_t>(starts.end() -
                                   std::upper_bound(starts.begin(),
                                                    starts.end(), arrival));
      metrics.peak_queue_depth =
          std::max<std::uint64_t>(metrics.peak_queue_depth, depth);
    }
  } else if (tenants_on) {
    // No arrival model: the run is one sequential request stream on one
    // serving process; every change of tenant along it is a switch.
    int last_tenant = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const int tenant = class_idx[i];
      if (last_tenant >= 0 && last_tenant != tenant) {
        switch_cost[i] = costs::kContextSwitch;
      }
      last_tenant = tenant;
    }
  }

  std::vector<std::uint64_t> latencies;
  latencies.reserve(n);
  std::vector<std::vector<std::uint64_t>> class_lat(classes.size());
  std::uint64_t connect_cycles_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rejected[i]) {
      continue; // never admitted: the child never forked or ran
    }
    const RequestSlot& slot = slots[i];
    ClassMetrics& cls = metrics.classes[class_idx[i]];
    metrics.total_cpu_cycles += slot.cycles;
    metrics.checking_cycles += slot.checking_cycles;
    metrics.sw_checks += slot.sw_checks;
    metrics.hw_checks += slot.hw_checks;
    metrics.segment_allocs += slot.segment_allocs;
    metrics.cache_hits += slot.cache_hits;
    metrics.retries += slot.retries;
    metrics.timeouts += slot.timeouts;
    metrics.faults_injected += slot.faults_injected;
    metrics.queue_wait_cycles += wait[i];
    if (connect_cost(i) > 0) {
      ++metrics.connects;
      connect_cycles_total += connect_cost(i);
    }
    if (switch_cost[i] > 0) {
      ++metrics.context_switches;
      metrics.context_switch_cycles += switch_cost[i];
      ++cls.context_switches_in;
    }
    cls.requests += 1;
    cls.total_cpu_cycles += slot.cycles;
    cls.checking_cycles += slot.checking_cycles;
    if (slot.failed) {
      ++metrics.failed_requests;
      ++cls.failed_requests;
      if (metrics.first_failure.empty()) {
        metrics.first_failure = slot.failure;
      }
    } else if (slot.degraded) {
      ++metrics.degraded_requests;
      ++cls.degraded_requests;
    }
    const std::uint64_t latency =
        slot.cycles + connect_cost(i) + wait[i] + switch_cost[i];
    latencies.push_back(latency);
    class_lat[class_idx[i]].push_back(latency);
    metrics.total_latency_cycles += latency;
  }

  std::sort(latencies.begin(), latencies.end());
  metrics.p50_latency_cycles = nearest_rank(latencies, 50);
  metrics.p90_latency_cycles = nearest_rank(latencies, 90);
  metrics.p99_latency_cycles = nearest_rank(latencies, 99);
  metrics.max_latency_cycles = latencies.empty() ? 0 : latencies.back();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::sort(class_lat[c].begin(), class_lat[c].end());
    ClassMetrics& cls = metrics.classes[c];
    cls.p50_latency_cycles = nearest_rank(class_lat[c], 50);
    cls.p90_latency_cycles = nearest_rank(class_lat[c], 90);
    cls.p99_latency_cycles = nearest_rank(class_lat[c], 99);
    cls.max_latency_cycles = class_lat[c].empty() ? 0 : class_lat[c].back();
  }

  // Every admitted attempt forks, so retried requests pay the fork cost
  // again; churn handshakes and tenant context switches land on the
  // server's busy interval too.
  const std::uint64_t admitted = latencies.size();
  metrics.total_busy_cycles = metrics.total_cpu_cycles +
                              kForkCycles * (admitted + metrics.retries) +
                              connect_cycles_total +
                              metrics.context_switch_cycles;
  if (admitted > 0) {
    metrics.mean_latency_cycles =
        static_cast<double>(metrics.total_cpu_cycles) /
        static_cast<double>(admitted);
    metrics.mean_latency_us = metrics.mean_latency_cycles / kClockHz * 1e6;
    // With the arrival model on, throughput is requests over the simulated
    // makespan (first arrival to last completion); the closed-loop default
    // keeps the paper's busy-interval definition.
    const double span_cycles =
        queue_on ? static_cast<double>(makespan)
                 : static_cast<double>(metrics.total_busy_cycles);
    if (span_cycles > 0) {
      metrics.throughput_rps =
          static_cast<double>(admitted) / (span_cycles / kClockHz);
    }
  }
  return metrics;
}

} // namespace

ServerMetrics serve_requests(const CompiledProgram& program, int requests,
                             std::uint32_t seed_base,
                             const exec::ExecutorConfig& executor,
                             const faultinject::FaultPlan& plan,
                             const ServeOptions& serve) {
  ServerMetrics metrics;
  metrics.requests = requests;
  const std::vector<RequestClass> classes = resolve_classes(serve);
  if (requests <= 0) {
    metrics.classes.resize(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      metrics.classes[c].name = classes[c].name;
    }
    return metrics;
  }
  const bool armed = !plan.empty();
  // With explicit classes the loop behaves like a production server:
  // per-request failures are recorded, never thrown. The legacy implicit
  // single class keeps throw-on-failure (callers treat it as a harness
  // bug), and armed runs always record (the chaos contract).
  const bool record_failures = armed || !serve.classes.empty();
  // One config for every child; ServeOptions::enable_predecode can only
  // turn the fast engine *off* relative to the compiled program's own
  // MachineConfig. The config is unarmed even for fault-plan runs: the
  // parent builds and initialises clean, and children are armed at the
  // fork point (Machine::arm_faults), so the captured parent image is
  // request-independent and both serving strategies share it.
  vm::MachineConfig child_cfg = program.options().machine;
  child_cfg.enable_predecode =
      child_cfg.enable_predecode && serve.enable_predecode;
  child_cfg.enable_trace = child_cfg.enable_trace && serve.enable_trace;
  child_cfg.fault_plan = {};

  const bool has_init =
      program.module().find_function("server_init") != nullptr;

  // Validate the parent image once before the accept loop: a broken
  // server_init aborts the whole server, not request 0.
  if (has_init) {
    vm::Machine parent(program.module(), child_cfg);
    vm::RunResult init = parent.run_function("server_init");
    if (!init.ok) {
      throw std::runtime_error(
          "server_init failed: " +
          (init.fault ? init.fault->detail : init.error));
    }
  }

  const std::vector<std::uint16_t> class_idx =
      assign_classes(classes, requests, seed_base);
  std::vector<RequestSlot> slots(static_cast<std::size_t>(requests));
  PoolAccum pool;

  // Replays server_init on a freshly built or freshly restored machine and
  // returns the inherited image's stat baselines; records (or throws) on
  // failure. Returns false when the request must not proceed.
  auto replay_init = [&](vm::Machine& child, RequestSlot& slot,
                         InitBaseline& base) -> bool {
    if (!has_init) {
      return true;
    }
    pool.init_replays.fetch_add(1, std::memory_order_relaxed);
    vm::RunResult init = child.run_function("server_init");
    if (!init.ok) {
      const std::string detail =
          "server_init failed: " +
          (init.fault ? init.fault->detail : init.error);
      if (!record_failures) {
        throw std::runtime_error(detail);
      }
      slot.failed = true;
      slot.failure = detail;
      slot.faults_injected += init.fault_stats.total();
      return false;
    }
    base = baseline_of(init);
    return true;
  };

  // Runs one clean (unarmed) request on a child holding the inherited
  // post-init image.
  auto run_clean = [&](vm::Machine& child, std::size_t i,
                       const InitBaseline& base) {
    RequestSlot& slot = slots[i];
    child.reseed(seed_base + static_cast<std::uint32_t>(i));
    vm::RunResult run = child.run_function(classes[class_idx[i]].handler);
    if (!run.ok) {
      const std::string detail =
          "request " + std::to_string(i) + " failed: " +
          (run.fault ? run.fault->detail : run.error);
      if (!record_failures) {
        throw std::runtime_error(detail);
      }
      slot.failed = true;
      slot.failure = detail;
      slot.cycles = run.cycles;
      return;
    }
    slot.cycles = run.cycles;
    slot.checking_cycles = run.breakdown.checking;
    slot.sw_checks = run.counters.sw_checks;
    slot.hw_checks = run.counters.hw_checked_accesses;
    slot.segment_allocs = run.segment_stats.alloc_requests - base.allocs;
    slot.cache_hits = run.segment_stats.cache_hits - base.hits;
    if (run.segment_stats.global_fallbacks > base.fallbacks ||
        run.segment_stats.gate_busy_retries > base.gate_busy) {
      slot.degraded = true;
    }
  };

  // Runs one armed request: the per-attempt machine comes from
  // `next_attempt` (fresh build + init replay, or restore of the pre-armed
  // parent snapshot) already holding the inherited image; this routine
  // arms the child at the fork point, seeds it, and runs the handler.
  // Every outcome is recorded, never thrown — the chaos contract is
  // "degraded or precise fault, no crash".
  auto serve_armed = [&](std::size_t i, const InitBaseline& base,
                         const std::function<vm::Machine*()>& next_attempt) {
    RequestSlot& slot = slots[i];
    faultinject::FaultPlan seeded = plan;
    seeded.seed = plan.seed + static_cast<std::uint32_t>(i);
    faultinject::FaultInjector net(plan,
                                   seed_base + static_cast<std::uint32_t>(i));
    const int budget = plan.net_retry_budget > 0 ? plan.net_retry_budget : 0;
    for (int attempt = 0;; ++attempt) {
      vm::Machine* child = next_attempt();
      if (child == nullptr) {
        break; // init replay failed; already recorded
      }
      child->arm_faults(seeded, child_cfg.rng_seed);
      child->reseed(seed_base + static_cast<std::uint32_t>(i));
      vm::RunResult run =
          child->run_function(classes[class_idx[i]].handler);
      // The child's injector was armed at the fork point, so these stats
      // cover exactly this attempt's handler.
      slot.faults_injected += run.fault_stats.total();
      if (!run.ok) {
        slot.failed = true;
        slot.failure = "request " + std::to_string(i) + " failed: " +
                       (run.fault ? run.fault->detail : run.error);
        slot.cycles += run.cycles;
        break;
      }
      if (net.should_inject(faultinject::FaultSite::kNetRequestTimeout)) {
        // The child computed the response but the client never saw it.
        ++slot.timeouts;
        slot.cycles += run.cycles + kTimeoutPenaltyCycles;
        if (attempt < budget) {
          ++slot.retries;
          slot.degraded = true;
          continue;
        }
        slot.failed = true;
        slot.failure = "request " + std::to_string(i) +
                       " timed out after " + std::to_string(attempt + 1) +
                       " attempts";
        break;
      }
      slot.cycles += run.cycles;
      slot.checking_cycles += run.breakdown.checking;
      slot.sw_checks += run.counters.sw_checks;
      slot.hw_checks += run.counters.hw_checked_accesses;
      slot.segment_allocs += run.segment_stats.alloc_requests - base.allocs;
      slot.cache_hits += run.segment_stats.cache_hits - base.hits;
      if (run.segment_stats.global_fallbacks > base.fallbacks ||
          run.segment_stats.gate_busy_retries > base.gate_busy) {
        slot.degraded = true;
      }
      break;
    }
    slot.faults_injected += net.stats().total();
  };

  if (serve.enable_snapshot) {
    // fork() from a snapshot pool: per worker chunk, build one machine,
    // replay server_init once, capture the post-init (pre-arming) parent
    // image, and rewind to it before every subsequent fork — each request,
    // and each re-fork of a timed-out armed request. Each child sees the
    // exact inherited parent image — restore() is bit-exact and armed
    // children re-arm a fresh injector after the rewind — so every slot is
    // identical to the replay path below and to any other jobs value;
    // parallel_chunks uses parallel_for's chunk boundaries, and a failed
    // request throws in chunk index order, surfacing the same lowest
    // failing index the replay path would.
    exec::parallel_chunks(
        static_cast<std::size_t>(requests), executor.jobs,
        [&](std::size_t begin, std::size_t end) {
          std::unique_ptr<vm::Machine> child =
              program.make_machine(child_cfg);
          pool.machines_built.fetch_add(1, std::memory_order_relaxed);
          InitBaseline base;
          if (has_init) {
            pool.init_replays.fetch_add(1, std::memory_order_relaxed);
            vm::RunResult init = child->run_function("server_init");
            if (!init.ok) {
              throw std::runtime_error(
                  "server_init failed: " +
                  (init.fault ? init.fault->detail : init.error));
            }
            base = baseline_of(init);
          }
          std::unique_ptr<vm::MachineSnapshot> snap;
          auto ensure_snapshot = [&] {
            if (snap == nullptr) {
              snap = child->capture();
              pool.captures.fetch_add(1, std::memory_order_relaxed);
            }
          };
          // A single clean request needs no snapshot at all; armed
          // requests may re-fork on retry, so they always capture.
          if (armed || end - begin > 1) {
            ensure_snapshot();
          }
          bool dirty = false;
          auto fork_child = [&]() -> vm::Machine* {
            if (dirty) {
              ensure_snapshot();
              child->restore(*snap);
              pool.restores.fetch_add(1, std::memory_order_relaxed);
            }
            dirty = true;
            return child.get();
          };
          for (std::size_t i = begin; i < end; ++i) {
            if (armed) {
              serve_armed(i, base, fork_child);
            } else {
              run_clean(*fork_child(), i, base);
            }
          }
        });
    metrics.pool = pool.snapshot();
    return finalize(metrics, slots, serve, seed_base, classes, class_idx);
  }

  exec::parallel_for(
      static_cast<std::size_t>(requests), executor.jobs,
      [&](std::size_t i) {
        // fork() by rebuild-and-replay: the child inherits the parent's
        // post-init image. Machine construction and server_init are pure
        // functions of the program (the parent runs unarmed either way),
        // so replaying them reconstructs that image exactly; program
        // start-up (call gate, global-array segments) and service
        // initialisation therefore never land on the per-request latency.
        if (!armed) {
          std::unique_ptr<vm::Machine> child =
              program.make_machine(child_cfg);
          pool.machines_built.fetch_add(1, std::memory_order_relaxed);
          InitBaseline base;
          if (!replay_init(*child, slots[i], base)) {
            return;
          }
          run_clean(*child, i, base);
          return;
        }
        // Armed: every attempt rebuilds the clean parent image, then
        // serve_armed arms the child at the fork point — the reference
        // semantics the fork-from-snapshot path above must match bit for
        // bit.
        std::unique_ptr<vm::Machine> child;
        InitBaseline base;
        bool init_ok = true;
        auto rebuild = [&]() -> vm::Machine* {
          child = program.make_machine(child_cfg);
          pool.machines_built.fetch_add(1, std::memory_order_relaxed);
          init_ok = replay_init(*child, slots[i], base);
          return init_ok ? child.get() : nullptr;
        };
        serve_armed(i, base, rebuild);
      });

  metrics.pool = pool.snapshot();
  return finalize(metrics, slots, serve, seed_base, classes, class_idx);
}

double penalty_pct(double baseline, double measured) {
  if (baseline == 0) {
    return 0;
  }
  return (measured - baseline) / baseline * 100.0;
}

} // namespace cash::netsim
