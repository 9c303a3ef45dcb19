#pragma once

// Shared pieces of the repository benchmark: timing and summary statistics,
// the expected-digest table behind the correctness gate, the span recorder
// of the traced run, and a phase-by-phase mirror of cash::compile() that the
// traced run uses to time each compiler layer from outside src/.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/cash.hpp"
#include "vm/decode.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A fixed probe of host speed: a data-dependent dispatch loop with random
// stores into a 64 MiB table, written here and independent of src/. On hosts
// whose cores are shared with other tenants, speed switches for seconds at a
// time between an uncontended state and one where the simulator runs up to
// ~1.7x slower, and a median over one run lands in either state. So every
// timed operation is also scaled by the probe's speed in a window around it
// (see Timings::normalized), which cancels most of the switch.
class HostProbe {
 public:
  // The probe's time on an uncontended reference host; normalized times
  // read as host time on such a host.
  static constexpr double kNominalSeconds = 300e-6;
  // Larger than a last-level cache, so the probe slows under memory
  // contention the way the simulator's large simulated memories do.
  static constexpr std::size_t kTableWords = std::size_t{1} << 24;

  HostProbe();
  // Runs the probe once and records its host time; returns its index.
  std::size_t sample();
  // kNominalSeconds over the median probe time of samples [i - 5, i + 6]:
  // the factor that takes a host time measured right after sample i to
  // reference speed.
  double scale(std::size_t i) const;
  double median_seconds() const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> seconds_;
  std::uint64_t sink_{0};
};

// Host times of a workload's timed operations, per cell, each tagged with
// the latest probe sample taken before it.
class Timings {
 public:
  explicit Timings(std::size_t cells) : samples_(cells) {}
  void add(std::size_t cell, std::size_t probe_index, double seconds) {
    samples_[cell].push_back({probe_index, seconds});
  }
  std::vector<std::vector<double>> raw() const;
  std::vector<std::vector<double>> normalized(const HostProbe& probe) const;

 private:
  std::vector<std::vector<std::pair<std::size_t, double>>> samples_;
};

// The shortest host time between two probe samples of a timed loop. The
// probe's stores evict host caches, so an operation that starts right after
// it runs cold: a `compile` operation (about 1 ms) ran 1-2% slower there.
// Operations shorter than this interval therefore mostly start warm, and
// the probe's 12-sample window still spans a fraction of a second.
constexpr std::chrono::milliseconds kProbeInterval{10};

// Set-up is repeated this many times per untraced run and setup_s is the
// median, because one set-up takes only milliseconds.
constexpr int kSetupReps = 25;

// Calls visit(cell, probe_index) for cells [0, n) in a random order drawn
// from `seed` and reshuffled every pass, until `seconds` have elapsed.
// The probe is sampled before the first visit, before any visit that starts
// kProbeInterval or more after the latest sample, and after the last visit;
// probe_index is the latest sample. Interleaving the cells spreads host
// drift over all of them instead of biasing whichever cell would run first.
template <typename Visit>
void visit_cells(std::size_t n, std::uint64_t seed, double seconds,
                 HostProbe& probe, Visit&& visit) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::size_t latest = probe.sample();
  Clock::time_point sampled_at = Clock::now();
  while (Clock::now() < deadline) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t cell : order) {
      if (Clock::now() >= deadline) {
        break;
      }
      if (Clock::now() - sampled_at >= kProbeInterval) {
        latest = probe.sample();
        sampled_at = Clock::now();
      }
      visit(cell, latest);
    }
  }
  probe.sample();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> values);
// Nearest-rank percentile (pct in (0, 100]) of `values`.
double nearest_rank(std::vector<double> values, double pct);
double geomean(const std::vector<double>& values);

// The highest whole percentile that leaves at least ten samples beyond it
// under the nearest-rank definition, or 100 (the maximum) when there are
// fewer than eleven samples.
int tail_percentile(std::size_t samples);

// A timing over several cells (kernel x mode, handler, source x config):
// the geometric mean of the per-cell medians, and the same taken at the tail
// percentile. When every cell has at least 20 samples the tail is each
// cell's tail percentile; otherwise it comes from all samples pooled, each
// divided by its cell's median, so it is defined for cells with few samples.
struct CellSummary {
  double median{0};
  double tail{0};
  int tail_pct{0};
  std::size_t samples{0};
};
CellSummary summarize_cells(const std::vector<std::vector<double>>& cells);

// Geometric mean of the medians of the non-empty cells, times `scale`.
double geomean_of_medians(const std::vector<std::vector<double>>& cells,
                          double scale);

// a / b, or 0 when b is 0.
double ratio(std::uint64_t a, std::uint64_t b);

// ---------------------------------------------------------------------------
// Results and the correctness gate
// ---------------------------------------------------------------------------

std::string fnv1a_hex(std::string_view text);

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

// Maps "<workload>\t<cell>" to the digest recorded with the benchmark.
class Expected {
 public:
  bool load(const std::string& path);
  bool save(const std::string& path) const;
  const std::string* find(const std::string& key) const;
  void set(const std::string& key, const std::string& digest) {
    table_[key] = digest;
  }

 private:
  std::map<std::string, std::string> table_;
};

// What one workload run reports: every checked operation, the ones that
// failed, and the metrics of the mode it ran in.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;

  // Counts one checked operation; a failure is also described on stderr.
  bool check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

class Tracer;

struct Context {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  // Set when recording: digests are stored into `expected` instead of being
  // compared, and nothing is timed.
  bool record{false};
  Expected expected;

  // Compares `digest` with the recorded value for `cell` of this workload
  // (or records it). `canonical` is the readable form the digest hashes,
  // printed on a mismatch.
  bool check_digest(Outcome& out, const std::string& cell,
                    const std::string& canonical);
};

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

// Records spans around calls into src/ public functions: name, start, end,
// parent span and the operation (workload cell visit or request batch) they
// belong to. Spans stay in memory and are written out when the run ends. A
// disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    const char* name{""};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};
    int op{-1};
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  int open(const char* name, int op);
  void close(int id);

  double duration_s(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Span duration minus the time its direct children cover, in seconds.
  std::vector<double> self_seconds() const;

  struct Totals {
    std::uint64_t calls{0};
    double total_s{0};
    double self_s{0};
  };
  std::map<std::string, Totals> totals_by_name() const;

  // Mean self time of the spans called `name`, times `scale`; 0 if none.
  double mean_self(const char* name, double scale) const;

  // Sum of the self times of the spans of `op` recorded from index `first`
  // on, which is the total duration of that operation's root spans.
  double op_self_seconds(std::size_t first, int op) const;

  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int op)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Compiling
// ---------------------------------------------------------------------------

// Throws std::runtime_error with the diagnostics when compilation fails.
std::unique_ptr<cash::CompiledProgram> compile_or_throw(
    std::string_view source, const cash::CompileOptions& options);

// Counts a traced compile collects between its spans (never inside them).
struct CompileCounts {
  std::uint64_t tokens{0};
  // IR instructions after irgen, optimize, elide and lower.
  std::uint64_t ir_instrs[4]{0, 0, 0, 0};
  cash::passes::ElideStats elide;
  cash::vm::FusionStats fusion;
};

// The work of cash::compile(), phase by phase, with a span around each
// public call: frontend.compile_to_ir, ir.verify after each phase,
// passes.optimize, passes.elide, passes.lower, and vm.decode (the
// CompiledProgram constructor, which builds the DecodedProgram). These
// spans belong to `op`. Lexer::lex and Parser::parse are timed separately
// as frontend.lex and frontend.parse spans outside the operation, since
// compile_to_ir runs them internally; irgen is derived from the difference.
std::unique_ptr<cash::CompiledProgram> traced_compile(
    std::string_view source, const cash::CompileOptions& options,
    Tracer& tracer, int op, CompileCounts& counts);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Outcome run_kernels(Context& ctx, Tracer& tracer);
Outcome run_serve(Context& ctx, Tracer& tracer);
Outcome run_compile(Context& ctx, Tracer& tracer);

// The per-layer metrics every traced run reports, whichever layers its
// workload exercises: a layer the workload bypasses reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Adds the frontend, ir, passes and vm-decode metrics of the traced
// compiles recorded in `tracer`: `compiles` of them, `elide_compiles` with
// check elision, lexing `tokens_lexed` tokens in all. The counts in `pass`
// cover one compile of each of the workload's programs.
void add_compile_layer_metrics(Outcome& out, const Tracer& tracer,
                               const CompileCounts& pass,
                               std::uint64_t compiles,
                               std::uint64_t elide_compiles,
                               std::uint64_t tokens_lexed);

// Adds the tracing overhead and the self-time check of a traced run, from
// per-cell samples of the untraced operations, of the traced operations'
// wall time, and of the sum of the traced operations' span self times; the
// k-th samples of a cell come from one visit. Reports
// trace.self_time_within as 1 when the self times are within the overhead
// plus the spread of the traced-to-untraced ratio.
void add_overhead_metrics(Outcome& out,
                          const std::vector<std::vector<double>>& untraced,
                          const std::vector<std::vector<double>>& traced_wall,
                          const std::vector<std::vector<double>>& traced_self);

// Peak resident memory of this process, in MB, without the host probe's
// table.
double peak_rss_mb();

// Adds the end-to-end metrics of an untraced run (setup_s, op_us,
// op_us_tail, peak_rss_mb) and prints the raw host times beside them.
// `setup` holds one sample per set-up repetition (cell 0).
void add_end_to_end(Outcome& out, const char* what, const Timings& setup,
                    const Timings& ops, const HostProbe& probe);

} // namespace perfbench
