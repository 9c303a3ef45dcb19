// The `serve` workload: the six Table 8 request handlers (network_suite(),
// cash mode) served through netsim::serve_requests with default
// ServeOptions (snapshot pool, traces on) at jobs=1. Requests are short, so
// host time goes to the pool build, restore(), the handler's run_function
// and re-forming traces on every fork.
//
// The traced run cannot see inside serve_requests, so it mirrors the call
// through the public vm::Machine API (the validation server_init, then one
// worker's build, server_init, capture, and per request restore, reseed and
// the handler) and checks that the mirror reproduces the timed call's
// ServerMetrics.
#include <cstdio>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "harness.hpp"
#include "netsim/netsim.hpp"
#include "vm/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using cash::netsim::ServerMetrics;

// Requests per serve_requests call, as in bench_trace's serving comparison.
// Each call also builds and initialises its server once (the kFixedSpans
// below, about 1 ms); at 120 requests that is about
// 3% of the time per request, and a call of about 35 ms still leaves
// a 30-second run over a hundred calls per handler for the tail.
constexpr int kRequests = 120;
constexpr std::uint32_t kCanonicalSeedBase = 1;

struct Handler {
  const cash::workloads::Workload* workload{nullptr};
  std::unique_ptr<cash::CompiledProgram> program;
  std::uint32_t seed_base{0};
  std::optional<ServerMetrics> first; // the first timed call's metrics
};

// Request seeds for handler `index`, derived from the workload seed
// (SplitMix64 finaliser).
std::uint32_t seed_base_for(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

// Every ServerMetrics field first_metrics_difference compares.
std::string metrics_canonical(const ServerMetrics& m) {
  std::string out;
  auto add = [&out](const char* name, auto value) {
    char buf[64];
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      std::snprintf(buf, sizeof buf, "%s=%.17g ", name, value);
    } else {
      std::snprintf(buf, sizeof buf, "%s=%llu ", name,
                    static_cast<unsigned long long>(value));
    }
    out += buf;
  };
  add("requests", static_cast<std::uint64_t>(m.requests));
  add("cpu", m.total_cpu_cycles);
  add("busy", m.total_busy_cycles);
  add("mean_cycles", m.mean_latency_cycles);
  add("mean_us", m.mean_latency_us);
  add("rps", m.throughput_rps);
  add("sw", m.sw_checks);
  add("hw", m.hw_checks);
  add("checking", m.checking_cycles);
  add("seg_allocs", m.segment_allocs);
  add("cache_hits", m.cache_hits);
  add("ctx_switches", m.context_switches);
  add("ctx_cycles", m.context_switch_cycles);
  add("retries", m.retries);
  add("timeouts", m.timeouts);
  add("degraded", m.degraded_requests);
  add("failed", m.failed_requests);
  add("faults", m.faults_injected);
  add("latency", m.total_latency_cycles);
  add("p50", m.p50_latency_cycles);
  add("p90", m.p90_latency_cycles);
  add("p99", m.p99_latency_cycles);
  add("max", m.max_latency_cycles);
  add("queue_wait", m.queue_wait_cycles);
  add("peak_queue", m.peak_queue_depth);
  add("rejected", m.rejected_requests);
  add("connects", m.connects);
  out += "first_failure=" + m.first_failure + " ";
  for (const cash::netsim::ClassMetrics& c : m.classes) {
    out += "class=" + c.name + " ";
    add("requests", c.requests);
    add("cpu", c.total_cpu_cycles);
    add("checking", c.checking_cycles);
    add("ctx_in", c.context_switches_in);
    add("p50", c.p50_latency_cycles);
    add("p90", c.p90_latency_cycles);
    add("p99", c.p99_latency_cycles);
    add("max", c.max_latency_cycles);
    add("degraded", c.degraded_requests);
    add("failed", c.failed_requests);
  }
  return out;
}

// Per-request counts of the mirrored fork loop, summed over requests.
struct MirrorCounts {
  std::uint64_t requests{0};
  std::uint64_t seg_allocs{0};
  std::uint64_t cache_hits{0};
  std::uint64_t malloc_calls{0};
  std::uint64_t call_gate_calls{0};
  std::uint64_t traces_formed{0};
  std::uint64_t tlb_hits{0};
  std::uint64_t tlb_misses{0};
  std::uint64_t tlb_flushes{0};
};

std::uint64_t nearest_rank_cycles(const std::vector<std::uint64_t>& sorted,
                                  int pct) {
  std::size_t rank = (sorted.size() * static_cast<std::size_t>(pct) + 99) / 100;
  return sorted[(rank == 0 ? 1 : rank) - 1];
}

// The mirror's spans that run once per serve_requests call, whatever its
// request count: the call's validation of server_init, then the pool
// machine's build, server_init and capture.
constexpr std::string_view kFixedSpans[] = {
    "netsim.validate", "vm.machine_build", "vm.server_init", "vm.capture"};

// One worker's fork loop of serve_requests at jobs=1 with default options,
// rebuilt from the public Machine API, and the ServerMetrics it implies.
// Simulated statistics on a restored machine are the parent image's plus
// the request's, so each request reports its difference from the post-init
// values; the host-side TLB statistics keep accumulating instead.
ServerMetrics mirror_serve(const cash::CompiledProgram& program,
                           int requests, std::uint32_t seed_base,
                           Tracer& tracer, int op, MirrorCounts& counts) {
  using cash::vm::RunResult;
  cash::vm::MachineConfig config = program.options().machine;
  config.fault_plan = {};
  {
    // serve_requests first runs server_init once on a machine built
    // without the decoded image (the reference interpreter), to reject a
    // broken server before any request.
    SpanScope span(tracer, "netsim.validate", op);
    cash::vm::Machine parent(program.module(), config);
    if (!parent.run_function("server_init").ok) {
      throw std::runtime_error("server_init failed");
    }
  }
  std::unique_ptr<cash::vm::Machine> child;
  {
    SpanScope span(tracer, "vm.machine_build", op);
    child = program.make_machine(config);
  }
  RunResult init;
  {
    SpanScope span(tracer, "vm.server_init", op);
    init = child->run_function("server_init");
  }
  if (!init.ok) {
    throw std::runtime_error("server_init failed");
  }
  std::unique_ptr<cash::vm::MachineSnapshot> snap;
  if (requests > 1) {
    SpanScope span(tracer, "vm.capture", op);
    snap = child->capture();
  }

  ServerMetrics m;
  m.requests = requests;
  cash::netsim::ClassMetrics cls;
  cls.name = "default";
  std::vector<std::uint64_t> latencies;
  cash::paging::TlbStats tlb_seen = init.tlb_stats;
  for (int i = 0; i < requests; ++i) {
    if (i > 0) {
      SpanScope span(tracer, "vm.restore", op);
      child->restore(*snap);
    }
    RunResult run;
    {
      SpanScope span(tracer, "vm.handler", op);
      child->reseed(seed_base + static_cast<std::uint32_t>(i));
      run = child->run_function("handle_request");
    }
    if (!run.ok) {
      throw std::runtime_error("request " + std::to_string(i) + " failed");
    }
    const auto& seg = run.segment_stats;
    const auto& base = init.segment_stats;
    m.total_cpu_cycles += run.cycles;
    m.checking_cycles += run.breakdown.checking;
    m.sw_checks += run.counters.sw_checks;
    m.hw_checks += run.counters.hw_checked_accesses;
    m.segment_allocs += seg.alloc_requests - base.alloc_requests;
    m.cache_hits += seg.cache_hits - base.cache_hits;
    if (seg.global_fallbacks > base.global_fallbacks ||
        seg.gate_busy_retries > base.gate_busy_retries) {
      ++m.degraded_requests;
    }
    m.total_latency_cycles += run.cycles;
    latencies.push_back(run.cycles);

    ++counts.requests;
    counts.seg_allocs += seg.alloc_requests - base.alloc_requests;
    counts.cache_hits += seg.cache_hits - base.cache_hits;
    counts.malloc_calls +=
        run.heap_stats.malloc_calls - init.heap_stats.malloc_calls;
    counts.call_gate_calls += run.kernel_account.call_gate_calls -
                              init.kernel_account.call_gate_calls;
    counts.traces_formed +=
        run.trace_stats.traces_formed - init.trace_stats.traces_formed;
    counts.tlb_hits += run.tlb_stats.hits - tlb_seen.hits;
    counts.tlb_misses += run.tlb_stats.misses - tlb_seen.misses;
    counts.tlb_flushes += run.tlb_stats.flushes - tlb_seen.flushes;
    tlb_seen = run.tlb_stats;
  }

  std::sort(latencies.begin(), latencies.end());
  m.p50_latency_cycles = nearest_rank_cycles(latencies, 50);
  m.p90_latency_cycles = nearest_rank_cycles(latencies, 90);
  m.p99_latency_cycles = nearest_rank_cycles(latencies, 99);
  m.max_latency_cycles = latencies.back();
  m.total_busy_cycles =
      m.total_cpu_cycles +
      cash::netsim::kForkCycles * static_cast<std::uint64_t>(requests);
  m.mean_latency_cycles = static_cast<double>(m.total_cpu_cycles) /
                          static_cast<double>(requests);
  m.mean_latency_us = m.mean_latency_cycles / cash::netsim::kClockHz * 1e6;
  m.throughput_rps =
      static_cast<double>(requests) /
      (static_cast<double>(m.total_busy_cycles) / cash::netsim::kClockHz);

  cls.requests = static_cast<std::uint64_t>(requests);
  cls.total_cpu_cycles = m.total_cpu_cycles;
  cls.checking_cycles = m.checking_cycles;
  cls.p50_latency_cycles = m.p50_latency_cycles;
  cls.p90_latency_cycles = m.p90_latency_cycles;
  cls.p99_latency_cycles = m.p99_latency_cycles;
  cls.max_latency_cycles = m.max_latency_cycles;
  cls.degraded_requests = m.degraded_requests;
  m.classes = {cls};
  return m;
}

ServerMetrics serve(const Handler& h, std::uint32_t seed_base,
                    bool enable_trace = true) {
  cash::netsim::ServeOptions options;
  options.enable_trace = enable_trace;
  return cash::netsim::serve_requests(*h.program, kRequests, seed_base,
                                      cash::exec::ExecutorConfig{1}, {},
                                      options);
}

// Every timed call must reproduce the handler's first timed call exactly.
bool check_same(Outcome& out, Handler& h, const ServerMetrics& m,
                const char* what) {
  if (!h.first) {
    h.first = m;
    return out.check(true, "");
  }
  const std::string diff = cash::netsim::first_metrics_difference(*h.first, m);
  return out.check(diff.empty(), h.workload->name + ": " + what +
                                     " differs from the first call on " +
                                     diff);
}

} // namespace

Outcome run_serve(Context& ctx, Tracer& tracer) {
  Outcome out;
  CompileCounts compile_counts;
  HostProbe probe;
  std::vector<Handler> handlers;
  Timings setup(1);
  const int setup_reps = ctx.trace || ctx.record ? 1 : kSetupReps;
  std::size_t probe_index = probe.sample();
  for (int rep = 0; rep < setup_reps; ++rep) {
    handlers.clear();
    const Clock::time_point start = Clock::now();
    const auto& suite = cash::workloads::network_suite();
    for (std::size_t i = 0; i < suite.size(); ++i) {
      cash::CompileOptions options;
      options.lower.mode = cash::passes::CheckMode::kCash;
      Handler h;
      h.workload = &suite[i];
      h.program =
          tracer.enabled()
              ? traced_compile(suite[i].source, options, tracer, -1,
                               compile_counts)
              : compile_or_throw(suite[i].source, options);
      h.seed_base = seed_base_for(ctx.seed, i);
      handlers.push_back(std::move(h));
    }
    setup.add(0, probe_index, seconds_between(start, Clock::now()));
    probe_index = probe.sample();
  }

  const std::size_t n = handlers.size();
  Timings per_req(n);
  std::vector<std::vector<double>> traced_wall(n);
  std::vector<std::vector<double>> traced_self(n);
  std::vector<std::vector<double>> call_ms(n);
  std::vector<std::vector<double>> netsim_self(n);
  std::vector<std::vector<double>> fixed_us(n);
  std::vector<std::vector<double>> trace_off(n);
  std::vector<double> handler_s(n);
  std::vector<std::uint64_t> handler_calls(n);
  MirrorCounts mirror_counts;
  cash::netsim::PoolStats pool;
  int op = 0;
  visit_cells(n, ctx.seed, ctx.seconds, probe,
              [&](std::size_t i, std::size_t visit) {
    Handler& h = handlers[i];
    auto untraced_call = [&] {
      const Clock::time_point start = Clock::now();
      const ServerMetrics m = serve(h, h.seed_base);
      per_req.add(i, visit, seconds_between(start, Clock::now()) / kRequests);
      check_same(out, h, m, "timed call");
    };
    try {
      if (!tracer.enabled()) {
        untraced_call();
        return;
      }
      // Alternate which of the untraced and traced calls runs first, so
      // neither profits from the host caches the other warmed.
      if (op % 2 == 0) {
        untraced_call();
      }
      const Clock::time_point traced_start = Clock::now();
      ServerMetrics traced;
      int call_span = -1;
      {
        SpanScope span(tracer, "netsim.serve_requests", op);
        call_span = span.id();
        traced = serve(h, h.seed_base);
      }
      traced_wall[i].push_back(seconds_between(traced_start, Clock::now()) /
                               kRequests);
      call_ms[i].push_back(tracer.duration_s(call_span) * 1e3);
      check_same(out, h, traced, "traced call");
      pool = traced.pool;
      if (op % 2 == 1) {
        untraced_call();
      }

      const std::size_t mirror_first = tracer.spans().size();
      const ServerMetrics mirror = mirror_serve(
          *h.program, kRequests, h.seed_base, tracer, op, mirror_counts);
      const std::string diff =
          cash::netsim::first_metrics_difference(traced, mirror);
      out.check(diff.empty(), h.workload->name +
                                  ": fork-loop mirror differs from the "
                                  "timed call on " + diff);
      // The mirror's spans are the traced attribution of one call: their
      // sum is compared with the untraced call time (the self-time check),
      // and the once-per-call ones give the call's fixed cost.
      double restore_handler_s = 0;
      double fixed_s = 0;
      for (std::size_t s = mirror_first; s < tracer.spans().size(); ++s) {
        const std::string_view name = tracer.spans()[s].name;
        const double d = tracer.duration_s(static_cast<int>(s));
        if (name == "vm.handler") {
          handler_s[i] += d;
          ++handler_calls[i];
          restore_handler_s += d;
        } else if (name == "vm.restore") {
          restore_handler_s += d;
        } else if (std::find(std::begin(kFixedSpans), std::end(kFixedSpans),
                             name) != std::end(kFixedSpans)) {
          fixed_s += d;
        }
      }
      traced_self[i].push_back(tracer.op_self_seconds(mirror_first, op) /
                               kRequests);
      fixed_us[i].push_back(fixed_s / kRequests * 1e6);
      netsim_self[i].push_back(
          (tracer.duration_s(call_span) - restore_handler_s) / kRequests);

      const Clock::time_point off_start = Clock::now();
      const ServerMetrics off = serve(h, h.seed_base, false);
      trace_off[i].push_back(seconds_between(off_start, Clock::now()) /
                             kRequests);
      check_same(out, h, off, "trace-off call");
      ++op;
    } catch (const std::exception& e) {
      out.check(false, h.workload->name + ": " + e.what());
    }
  });

  // Recorded digest at a fixed request seed, and the fork-loop mirror as an
  // independent reference for this run's request seeds.
  for (Handler& h : handlers) {
    try {
      ctx.check_digest(out, h.workload->name,
                       metrics_canonical(serve(h, kCanonicalSeedBase)));
      Tracer off(false);
      MirrorCounts scratch;
      const ServerMetrics mirror =
          mirror_serve(*h.program, kRequests, h.seed_base, off, -1, scratch);
      const ServerMetrics reference =
          h.first ? *h.first : serve(h, h.seed_base);
      const std::string diff =
          cash::netsim::first_metrics_difference(reference, mirror);
      out.check(diff.empty(), h.workload->name +
                                  ": fork-loop mirror differs from "
                                  "serve_requests on " + diff);
    } catch (const std::exception& e) {
      out.check(false, h.workload->name + ": " + e.what());
    }
  }

  if (ctx.record) {
    return out;
  }

  if (!tracer.enabled()) {
    // One operation is one request: a serve_requests call's time divided
    // by its requests (serve_us_per_req).
    add_end_to_end(out, "serve", setup, per_req, probe);
    return out;
  }

  const std::vector<std::vector<double>> untraced = per_req.raw();
  add_compile_layer_metrics(out, tracer, compile_counts, n, 0,
                            compile_counts.tokens);
  add_overhead_metrics(out, untraced, traced_wall, traced_self);
  auto per_request = [&](std::uint64_t v) {
    return mirror_counts.requests == 0
               ? 0.0
               : static_cast<double>(v) /
                     static_cast<double>(mirror_counts.requests);
  };
  std::vector<double> handler_us;
  for (std::size_t i = 0; i < n; ++i) {
    if (handler_calls[i] > 0) {
      handler_us.push_back(handler_s[i] /
                           static_cast<double>(handler_calls[i]) * 1e6);
    }
  }
  out.add("vm.handler_us", geomean(handler_us), "us");
  out.add("vm.trace.formed_per_req", per_request(mirror_counts.traces_formed),
          "count");
  out.add("vm.tier.fused.us_per_req", geomean_of_medians(trace_off, 1e6),
          "us");
  out.add("vm.tier.trace.us_per_req", geomean_of_medians(untraced, 1e6),
          "us");
  out.add("vm.capture_us", tracer.mean_self("vm.capture", 1e6), "us");
  out.add("vm.restore_us", tracer.mean_self("vm.restore", 1e6), "us");
  out.add("vm.server_init_ms", tracer.mean_self("vm.server_init", 1e3), "ms");
  out.add("paging.tlb.hit_rate",
          ratio(mirror_counts.tlb_hits,
                mirror_counts.tlb_hits + mirror_counts.tlb_misses),
          "ratio");
  out.add("paging.tlb.flushes", per_request(mirror_counts.tlb_flushes),
          "count");
  out.add("runtime.seg.alloc_requests", per_request(mirror_counts.seg_allocs),
          "count");
  out.add("runtime.seg.cache_hit_rate",
          ratio(mirror_counts.cache_hits, mirror_counts.seg_allocs), "ratio");
  out.add("runtime.heap.malloc_calls", per_request(mirror_counts.malloc_calls),
          "count");
  out.add("kernel.call_gate_calls",
          per_request(mirror_counts.call_gate_calls), "count");
  out.add("netsim.serve_call_ms", geomean_of_medians(call_ms, 1), "ms");
  // An arithmetic mean: a handler's difference of two timings may be
  // negative in a noisy run.
  double self_sum = 0;
  for (const std::vector<double>& c : netsim_self) {
    self_sum += median(c) * 1e6;
  }
  out.add("netsim.self_us_per_req", self_sum / static_cast<double>(n), "us");
  // The per-call fixed cost spread over the call's requests, and its share
  // of the untraced time per request.
  std::vector<double> fixed_share;
  double unattributed_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!untraced[i].empty() && !fixed_us[i].empty()) {
      fixed_share.push_back(median(fixed_us[i]) / (median(untraced[i]) * 1e6));
      unattributed_sum += (median(untraced[i]) - median(traced_self[i])) * 1e6;
    }
  }
  out.add("netsim.fixed_us_per_req", geomean_of_medians(fixed_us, 1), "us");
  out.add("netsim.fixed_share", geomean(fixed_share), "ratio");
  out.add("netsim.unattributed_us_per_req",
          unattributed_sum / static_cast<double>(n), "us");
  out.add("netsim.pool.machines_built",
          static_cast<double>(pool.machines_built), "count");
  out.add("netsim.pool.captures", static_cast<double>(pool.captures), "count");
  out.add("netsim.pool.restores", static_cast<double>(pool.restores), "count");
  out.add("netsim.pool.init_replays", static_cast<double>(pool.init_replays),
          "count");
  return out;
}

} // namespace perfbench
