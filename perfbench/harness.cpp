#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/diagnostics.hpp"
#include "frontend/irgen.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "ir/verifier.hpp"
#include "passes/optimize.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double nearest_rank(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int tail_percentile(std::size_t samples) {
  for (int pct = 99; pct >= 1; --pct) {
    const auto rank = static_cast<std::size_t>(std::ceil(
        static_cast<double>(pct) / 100.0 * static_cast<double>(samples)));
    if (rank >= 1 && samples - rank >= 10) {
      return pct;
    }
  }
  return 100;
}

CellSummary summarize_cells(const std::vector<std::vector<double>>& cells) {
  CellSummary out;
  std::vector<double> medians;
  std::vector<double> ratios;
  std::size_t fewest = SIZE_MAX;
  for (const std::vector<double>& cell : cells) {
    if (cell.empty()) {
      continue;
    }
    const double m = median(cell);
    medians.push_back(m);
    for (double v : cell) {
      ratios.push_back(v / m);
    }
    fewest = std::min(fewest, cell.size());
  }
  out.samples = ratios.size();
  if (medians.empty()) {
    return out;
  }
  out.median = geomean(medians);
  if (fewest >= 20) {
    out.tail_pct = tail_percentile(fewest);
    std::vector<double> tails;
    for (const std::vector<double>& cell : cells) {
      if (!cell.empty()) {
        tails.push_back(nearest_rank(cell, out.tail_pct));
      }
    }
    out.tail = geomean(tails);
  } else {
    out.tail_pct = tail_percentile(ratios.size());
    out.tail = out.median * nearest_rank(ratios, out.tail_pct);
  }
  return out;
}

double geomean_of_medians(const std::vector<std::vector<double>>& cells,
                          double scale) {
  std::vector<double> medians;
  for (const std::vector<double>& cell : cells) {
    if (!cell.empty()) {
      medians.push_back(median(cell) * scale);
    }
  }
  return geomean(medians);
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

HostProbe::HostProbe() : table_(kTableWords, 1) {}

std::size_t HostProbe::sample() {
  static constexpr std::uint8_t kProgram[] = {0, 1, 2, 3, 1, 4, 0, 2, 5, 3,
                                              1, 0, 4, 2, 5, 1, 3, 0, 2, 4};
  const std::size_t mask = table_.size() - 1;
  std::uint64_t regs[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t x = 88172645463325252ULL;
  const Clock::time_point start = Clock::now();
  for (int iteration = 0; iteration < 1000; ++iteration) {
    for (std::uint8_t op : kProgram) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      switch ((op + (x & 1)) % 6) {
        case 0:
          regs[x & 7] += regs[(x >> 3) & 7];
          break;
        case 1:
          table_[(x >> 11) & mask] = static_cast<std::uint32_t>(regs[x & 7]);
          break;
        case 2:
          regs[(x >> 5) & 7] ^= table_[(x >> 7) & 1023];
          break;
        case 3:
          regs[x & 7] = regs[x & 7] * 3 + 1;
          break;
        case 4:
          if (regs[x & 7] & 1) {
            regs[(x >> 4) & 7] >>= 1;
          }
          break;
        default:
          regs[(x >> 9) & 7] -= x & 255;
          break;
      }
    }
  }
  seconds_.push_back(seconds_between(start, Clock::now()));
  for (std::uint64_t r : regs) {
    sink_ += r; // keeps the loop's results live
  }
  return seconds_.size() - 1;
}

double HostProbe::scale(std::size_t i) const {
  const std::size_t lo = i < 5 ? 0 : i - 5;
  const std::size_t hi = std::min(seconds_.size(), i + 7);
  return kNominalSeconds /
         median(std::vector<double>(seconds_.begin() + static_cast<long>(lo),
                                    seconds_.begin() + static_cast<long>(hi)));
}

double HostProbe::median_seconds() const { return median(seconds_); }

std::vector<std::vector<double>> Timings::raw() const {
  std::vector<std::vector<double>> out(samples_.size());
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    for (const auto& [index, seconds] : samples_[c]) {
      out[c].push_back(seconds);
    }
  }
  return out;
}

std::vector<std::vector<double>> Timings::normalized(
    const HostProbe& probe) const {
  std::vector<std::vector<double>> out(samples_.size());
  for (std::size_t c = 0; c < samples_.size(); ++c) {
    for (const auto& [index, seconds] : samples_[c]) {
      out[c].push_back(seconds * probe.scale(index));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Results and the correctness gate
// ---------------------------------------------------------------------------

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool Expected::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos) {
      continue;
    }
    table_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

bool Expected::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# Simulated-result digests the benchmark checks every operation\n"
         "# against: <workload> TAB <cell> TAB <FNV-1a of the canonical "
         "result>.\n"
         "# Regenerate with: python3 perfbench/run.py --record\n";
  for (const auto& [key, digest] : table_) {
    out << key << '\t' << digest << '\n';
  }
  return static_cast<bool>(out);
}

const std::string* Expected::find(const std::string& key) const {
  const auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

bool Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

bool Context::check_digest(Outcome& out, const std::string& cell,
                           const std::string& canonical) {
  const std::string key = workload + "\t" + cell;
  const std::string digest = fnv1a_hex(canonical);
  if (record) {
    expected.set(key, digest);
    return true;
  }
  const std::string* want = expected.find(key);
  if (want == nullptr) {
    return out.check(false, workload + " " + cell + ": no expected digest");
  }
  if (*want == digest) {
    return out.check(true, "");
  }
  return out.check(false, workload + " " + cell + ": digest " + digest +
                              " != expected " + *want + " (" + canonical +
                              ")");
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

int Tracer::open(const char* name, int op) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(id);
  spans_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  return id;
}

void Tracer::close(int id) {
  if (id < 0) {
    return;
  }
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = duration_s(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= self[i];
    }
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals_by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.calls;
    t.total_s += duration_s(static_cast<int>(i));
    t.self_s += self[i];
  }
  return out;
}

double Tracer::mean_self(const char* name, double scale) const {
  const std::map<std::string, Totals> totals = totals_by_name();
  const auto it = totals.find(name);
  return it == totals.end()
             ? 0.0
             : it->second.self_s / static_cast<double>(it->second.calls) *
                   scale;
}

double Tracer::op_self_seconds(std::size_t first, int op) const {
  double sum = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].op == op && spans_[i].parent < 0) {
      sum += duration_s(static_cast<int>(i));
    }
  }
  return sum;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Compiling
// ---------------------------------------------------------------------------

std::unique_ptr<cash::CompiledProgram> compile_or_throw(
    std::string_view source, const cash::CompileOptions& options) {
  cash::CompileResult compiled = cash::compile(source, options);
  if (!compiled.ok()) {
    throw std::runtime_error("compile failed: " + compiled.error);
  }
  return std::move(compiled.program);
}

namespace {

std::uint64_t count_instrs(const cash::ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn->blocks) {
      n += block->instrs.size();
    }
  }
  return n;
}

} // namespace

std::unique_ptr<cash::CompiledProgram> traced_compile(
    std::string_view source, const cash::CompileOptions& options,
    Tracer& tracer, int op, CompileCounts& counts) {
  using namespace cash;
  {
    DiagnosticSink diagnostics;
    std::vector<frontend::Token> tokens;
    {
      SpanScope span(tracer, "frontend.lex", -1);
      tokens = frontend::Lexer(source, diagnostics).lex();
    }
    counts.tokens += tokens.size();
    SpanScope span(tracer, "frontend.parse", -1);
    frontend::Parser(std::move(tokens), diagnostics).parse();
  }

  DiagnosticSink diagnostics;
  std::unique_ptr<ir::Module> module;
  {
    SpanScope span(tracer, "frontend.compile_to_ir", op);
    module = frontend::compile_to_ir(source, diagnostics);
  }
  if (module == nullptr) {
    throw std::runtime_error("compile failed: " + diagnostics.to_string());
  }
  auto verify = [&](const char* phase) {
    std::vector<std::string> problems;
    {
      SpanScope span(tracer, "ir.verify", op);
      problems = ir::verify(*module);
    }
    if (!problems.empty()) {
      throw std::runtime_error(std::string("IR verification failed after ") +
                               phase + ": " + problems.front());
    }
  };
  verify("IR generation");
  counts.ir_instrs[0] += count_instrs(*module);

  if (options.optimize) {
    {
      SpanScope span(tracer, "passes.optimize", op);
      passes::optimize_module(*module);
    }
    verify("optimisation");
  }
  counts.ir_instrs[1] += count_instrs(*module);

  CompileOptions effective = options;
  effective.machine.mode = options.lower.mode;
  passes::ElideStats elide_stats;
  if (effective.lower.elide_checks) {
    {
      SpanScope span(tracer, "passes.elide", op);
      elide_stats = passes::elide_module(*module, effective.lower);
    }
    verify("check elision");
  }
  counts.ir_instrs[2] += count_instrs(*module);
  counts.elide += elide_stats;

  passes::LowerStats lower_stats;
  {
    SpanScope span(tracer, "passes.lower", op);
    lower_stats = passes::lower_module(*module, effective.lower);
  }
  verify("lowering");
  counts.ir_instrs[3] += count_instrs(*module);

  std::unique_ptr<CompiledProgram> program;
  {
    SpanScope span(tracer, "vm.decode", op);
    program = std::make_unique<CompiledProgram>(
        std::move(module), effective, std::string(source), lower_stats,
        elide_stats);
  }
  counts.fusion += program->decoded()->fusion_stats();
  return program;
}

// ---------------------------------------------------------------------------
// Per-layer reporting
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"frontend.lex_us", "us"},
      {"frontend.parse_us", "us"},
      {"frontend.irgen_us", "us"},
      {"frontend.tokens_per_us", "1/us"},
      {"ir.verify_us", "us"},
      {"passes.optimize_us", "us"},
      {"passes.elide_us", "us"},
      {"passes.lower_us", "us"},
      {"passes.ir_instrs.irgen", "count"},
      {"passes.ir_instrs.optimize", "count"},
      {"passes.ir_instrs.elide", "count"},
      {"passes.ir_instrs.lower", "count"},
      {"passes.elide.checks_removed", "count"},
      {"vm.decode_us", "us"},
      {"vm.decode.fusion_hit_rate", "ratio"},
      {"vm.run_ms", "ms"},
      {"vm.instructions", "count"},
      {"vm.tier.interp.mips", "Minstr/s"},
      {"vm.tier.plain.mips", "Minstr/s"},
      {"vm.tier.fused.mips", "Minstr/s"},
      {"vm.tier.trace.mips", "Minstr/s"},
      {"vm.trace.coverage", "ratio"},
      {"vm.trace.formed", "count"},
      {"vm.trace.guard_exits_per_exec", "ratio"},
      {"vm.handler_us", "us"},
      {"vm.trace.formed_per_req", "count"},
      {"vm.tier.fused.us_per_req", "us"},
      {"vm.tier.trace.us_per_req", "us"},
      {"vm.prepare_ms", "ms"},
      {"vm.capture_us", "us"},
      {"vm.restore_us", "us"},
      {"vm.server_init_ms", "ms"},
      {"paging.tlb.hit_rate", "ratio"},
      {"paging.tlb.flushes", "count"},
      {"vm.sw_checks", "count"},
      {"vm.hw_checked_accesses", "count"},
      {"vm.seg_reg_loads", "count"},
      {"runtime.seg.alloc_requests", "count"},
      {"runtime.seg.cache_hit_rate", "ratio"},
      {"runtime.heap.malloc_calls", "count"},
      {"kernel.call_gate_calls", "count"},
      {"netsim.serve_call_ms", "ms"},
      {"netsim.self_us_per_req", "us"},
      {"netsim.fixed_us_per_req", "us"},
      {"netsim.fixed_share", "ratio"},
      {"netsim.unattributed_us_per_req", "us"},
      {"netsim.pool.machines_built", "count"},
      {"netsim.pool.captures", "count"},
      {"netsim.pool.restores", "count"},
      {"netsim.pool.init_replays", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.self_time_gap_pct", "%"},
      {"trace.self_time_within", "bool"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

void add_compile_layer_metrics(Outcome& out, const Tracer& tracer,
                               const CompileCounts& pass,
                               std::uint64_t compiles,
                               std::uint64_t elide_compiles,
                               std::uint64_t tokens_lexed) {
  const std::map<std::string, Tracer::Totals> by_name =
      tracer.totals_by_name();
  auto total_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_s * 1e6;
  };
  auto per = [](double value, std::uint64_t n) {
    return n == 0 ? 0.0 : value / static_cast<double>(n);
  };
  const double lex = total_us("frontend.lex");
  const double parse = total_us("frontend.parse");
  out.add("frontend.lex_us", per(lex, compiles), "us");
  out.add("frontend.parse_us", per(parse, compiles), "us");
  // Derived: compile_to_ir runs lex and parse itself.
  out.add("frontend.irgen_us",
          per(total_us("frontend.compile_to_ir") - lex - parse, compiles),
          "us");
  out.add("frontend.tokens_per_us",
          lex > 0 ? static_cast<double>(tokens_lexed) / lex : 0.0, "1/us");
  out.add("ir.verify_us", per(total_us("ir.verify"), compiles), "us");
  out.add("passes.optimize_us", per(total_us("passes.optimize"), compiles),
          "us");
  out.add("passes.elide_us", per(total_us("passes.elide"), elide_compiles),
          "us");
  out.add("passes.lower_us", per(total_us("passes.lower"), compiles), "us");
  static const char* const kPhases[4] = {"irgen", "optimize", "elide",
                                         "lower"};
  for (int i = 0; i < 4; ++i) {
    out.add(std::string("passes.ir_instrs.") + kPhases[i],
            static_cast<double>(pass.ir_instrs[i]), "count");
  }
  out.add("passes.elide.checks_removed",
          static_cast<double>(pass.elide.checks_removed()), "count");
  out.add("vm.decode_us", per(total_us("vm.decode"), compiles), "us");
  out.add("vm.decode.fusion_hit_rate", pass.fusion.hit_rate(), "ratio");
}

void add_overhead_metrics(Outcome& out,
                          const std::vector<std::vector<double>>& untraced,
                          const std::vector<std::vector<double>>& traced_wall,
                          const std::vector<std::vector<double>>& traced_self) {
  std::vector<double> wall_ratio;
  std::vector<double> self_ratio;
  std::vector<double> spread;
  for (std::size_t c = 0; c < untraced.size(); ++c) {
    if (untraced[c].empty() || traced_wall[c].empty()) {
      continue;
    }
    const double base = median(untraced[c]);
    wall_ratio.push_back(median(traced_wall[c]) / base);
    self_ratio.push_back(median(traced_self[c]) / base);
    // Each visit times one untraced and one traced operation back to back,
    // so the k-th samples form a pair whose ratio cancels host drift.
    std::vector<double> pair_ratio;
    for (std::size_t k = 0;
         k < std::min(untraced[c].size(), traced_self[c].size()); ++k) {
      pair_ratio.push_back(traced_self[c][k] / untraced[c][k]);
    }
    const double m = median(pair_ratio);
    spread.push_back(
        (nearest_rank(pair_ratio, 75) - nearest_rank(pair_ratio, 25)) / m);
  }
  const double overhead = (geomean(wall_ratio) - 1) * 100;
  const double gap = (geomean(self_ratio) - 1) * 100;
  // The self times are the traced run's attribution of the untraced time;
  // they may differ from it by the tracing overhead plus the spread of
  // the traced-to-untraced ratio over the visits.
  const double tolerance = std::abs(overhead) + median(spread) * 100;
  const bool within = std::abs(gap) <= tolerance;
  out.add("trace.overhead_pct", overhead, "%");
  out.add("trace.self_time_gap_pct", gap, "%");
  out.add("trace.self_time_within", within ? 1.0 : 0.0, "bool");
  std::printf("self-time check: traced self times sum to %+.2f%% of the "
              "untraced time; tracing overhead %+.2f%%, IQR of the "
              "traced/untraced ratio %.2f%% -> %s\n",
              gap, overhead, median(spread) * 100,
              within ? "within" : "OUTSIDE");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
  const double probe_mb = static_cast<double>(HostProbe::kTableWords *
                                              sizeof(std::uint32_t)) /
                          (1024.0 * 1024.0);
  return rss_mb - probe_mb;
}

void add_end_to_end(Outcome& out, const char* what, const Timings& setup,
                    const Timings& ops, const HostProbe& probe) {
  const CellSummary norm = summarize_cells(ops.normalized(probe));
  const CellSummary raw = summarize_cells(ops.raw());
  const double setup_norm = median(setup.normalized(probe).front());
  const double setup_raw = median(setup.raw().front());
  out.add("setup_s", setup_norm, "s");
  out.add("op_us", norm.median * 1e6, "us");
  out.add("op_us_tail", norm.tail * 1e6, "us");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%s: %zu timed operations, tail = p%d; host probe median "
              "%.1f us (reference %.0f us)\n",
              what, norm.samples, norm.tail_pct,
              probe.median_seconds() * 1e6, HostProbe::kNominalSeconds * 1e6);
  std::printf("raw host time: setup %.6f s, op median %.3f us, op tail "
              "%.3f us\n",
              setup_raw, raw.median * 1e6, raw.tail * 1e6);
}

} // namespace perfbench
