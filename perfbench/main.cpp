// The repository benchmark. One workload per invocation, at jobs=1:
//
//   perfbench --workload kernels|serve|compile --seed N --seconds S
//             --trace 0|1 --expected perfbench/expected.txt
//             [--spans-dir DIR]
//   perfbench --record perfbench/expected.txt
//
// Every operation's simulated result is checked against the digest recorded
// in the expected file (and the kernels against native reference checksums,
// the served requests against a mirror of the fork loop). The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// of a traced run with --trace 1. The exit status is non-zero when any
// operation failed. perfbench/run.py builds this binary and runs it.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

// Optimised builds without assertions only: Debug or assert-enabled timings
// must never enter a comparison.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kTimingBuild = true;
#else
constexpr bool kTimingBuild = false;
#endif

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// The simulator's environment kill switches. The benchmark selects engine
// tiers through MachineConfig and ServeOptions only, so its numbers cannot
// depend on the environment it runs in.
constexpr const char* kEnvSwitches[] = {
    "CASH_NO_TLB",      "CASH_NO_PREDECODE", "CASH_NO_FUSION",
    "CASH_NO_TRACE",    "CASH_NO_SNAPSHOT",  "CASH_NO_ELIDE",
    "CASH_NO_MULTIPROC", "CASH_JOBS",
};

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", load[0], load[1],
                load[2]);
  return buf;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kernels|serve|compile --seed N --seconds S --trace 0|1 "
               "--expected FILE [--spans-dir DIR]\n"
               "       perfbench --record FILE\n",
               message);
  return 2;
}

void print_layer_report(const perfbench::Tracer& tracer) {
  const auto totals = tracer.totals_by_name();
  double all_self = 0;
  for (const auto& [name, t] : totals) {
    all_self += t.self_s;
  }
  std::printf("\n%-26s %8s %12s %12s %7s\n", "span", "calls", "total ms",
              "self ms", "self%");
  for (const auto& [name, t] : totals) {
    std::printf("%-26s %8llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_s * 1e3,
                t.self_s * 1e3, all_self > 0 ? t.self_s / all_self * 100 : 0);
  }
}

} // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  std::string expected_path;
  std::string record_path;
  std::string spans_dir;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        ctx.workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        ctx.trace = value == "1";
      } else if (arg == "--expected") {
        expected_path = value;
      } else if (arg == "--record") {
        record_path = value;
      } else if (arg == "--spans-dir") {
        spans_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  std::string cleared;
  for (const char* name : kEnvSwitches) {
    if (std::getenv(name) != nullptr) {
      cleared += cleared.empty() ? name : std::string(", ") + name;
      unsetenv(name);
    }
  }
  if (!cleared.empty()) {
    std::printf("# cleared environment switches: %s\n", cleared.c_str());
  }

  if (!record_path.empty()) {
    // Recording checks nothing against the old file and times nothing: it
    // runs every workload's checked operations once and stores the digests.
    ctx.record = true;
    Outcome all;
    for (const char* workload : {"kernels", "serve", "compile"}) {
      ctx.workload = workload;
      Tracer off(false);
      Outcome out = workload == std::string("kernels") ? run_kernels(ctx, off)
                    : workload == std::string("serve") ? run_serve(ctx, off)
                                                       : run_compile(ctx, off);
      all.attempted += out.attempted;
      all.failed += out.failed;
    }
    if (all.failed != 0 || !ctx.expected.save(record_path)) {
      std::fprintf(stderr, "perfbench: recording failed\n");
      return 1;
    }
    std::printf("recorded digests in %s\n", record_path.c_str());
    return 0;
  }

  if (ctx.workload != "kernels" && ctx.workload != "serve" &&
      ctx.workload != "compile") {
    return usage("--workload must be kernels, serve or compile");
  }
  if (!have_seed || !have_seconds || ctx.seconds <= 0) {
    return usage("--seed and a positive --seconds are required");
  }
  if (!kTimingBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimised or "
                 "assert-enabled build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  if (expected_path.empty() || !ctx.expected.load(expected_path)) {
    return usage("cannot read the expected digests (--expected)");
  }

  const std::string load_start = load_average();
  Tracer tracer(ctx.trace);
  Outcome out;
  try {
    out = ctx.workload == "kernels" ? run_kernels(ctx, tracer)
          : ctx.workload == "serve" ? run_serve(ctx, tracer)
                                    : run_compile(ctx, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", ctx.workload.c_str(),
                 e.what());
    return 1;
  }
  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);

  std::printf("# run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"jobs\": 1, \"nproc\": %u, \"compiler\": "
              "\"%s\", \"build_flags\": \"%s\", \"threaded_dispatch\": %s, "
              "\"loadavg_start\": %s, \"loadavg_end\": %s}\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              json_number(ctx.seconds).c_str(), ctx.trace ? 1 : 0,
              std::thread::hardware_concurrency(), compiler_id(),
              PERFBENCH_BUILD_FLAGS,
              cash::vm::threaded_dispatch_enabled() ? "true" : "false",
              load_start.c_str(), load_average().c_str());

  std::vector<Metric> reported;
  if (ctx.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : out.metrics) {
        if (got.name == name) {
          m.value = got.value;
        }
      }
      if (name == "trace.spans") {
        m.value = static_cast<double>(tracer.spans().size());
      }
      reported.push_back(m);
    }
    print_layer_report(tracer);
    if (!spans_dir.empty()) {
      const std::string path = spans_dir + "/spans-" + ctx.workload + "-" +
                               std::to_string(ctx.seed) + ".jsonl";
      tracer.write_jsonl(path);
      std::printf("spans written to %s\n", path.c_str());
    }
  } else {
    reported = out.metrics;
  }

  std::printf("\n%-32s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : reported) {
    std::printf("%-32s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%-32s %18.6g  %s   (%llu failed of %llu checked operations)\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + reported[i].name +
            "\": {\"value\": " + json_number(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
