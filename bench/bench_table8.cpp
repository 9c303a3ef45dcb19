// Table 8: latency penalty, throughput penalty, and space overhead of each
// network application under Cash, measured with the paper's methodology:
// 2000 requests, one forked server process per request. The simulated
// forks are independent, so serve_requests shards them across host threads
// ($CASH_JOBS, default all cores) — the reported numbers are bit-identical
// for any thread count.
#include "bench_util.hpp"
#include "netsim/netsim.hpp"

int main() {
  using namespace cash;
  using namespace cash::bench;
  using passes::CheckMode;

  const int requests = env_int("CASH_BENCH_REQUESTS", 2000);
  const exec::ExecutorConfig executor{bench_jobs()};

  print_title("Table 8: network application penalties under Cash");
  std::printf("(%d requests per application, one forked process each, "
              "%d host threads)\n\n",
              requests, bench_jobs());
  std::printf("%-10s %9s %11s %9s %14s %14s %14s\n", "Program", "Latency",
              "Throughput", "Space", "paper Lat.", "paper Thr.",
              "paper Space");

  const double paper_lat[] = {6.5, 3.3, 9.8, 2.5, 3.3, 4.4};
  const double paper_thr[] = {6.1, 3.2, 8.9, 2.4, 3.2, 4.3};
  const double paper_space[] = {60.1, 56.3, 44.8, 68.3, 63.4, 53.6};

  int i = 0;
  for (const workloads::Workload& w : workloads::network_suite()) {
    CompileOptions gcc_options;
    gcc_options.lower.mode = CheckMode::kNoCheck;
    CompileResult gcc = compile(w.source, gcc_options);
    CompileOptions cash_options;
    cash_options.lower.mode = CheckMode::kCash;
    CompileResult cash_c = compile(w.source, cash_options);
    if (!gcc.ok() || !cash_c.ok()) {
      std::printf("%-10s compile error\n", w.name.c_str());
      continue;
    }

    const netsim::ServerMetrics base =
        netsim::serve_requests(*gcc.program, requests, 1, executor);
    const netsim::ServerMetrics cash_m =
        netsim::serve_requests(*cash_c.program, requests, 1, executor);

    const double latency_penalty = netsim::penalty_pct(
        base.mean_latency_cycles, cash_m.mean_latency_cycles);
    // Throughput penalty: relative drop in requests/second.
    const double throughput_penalty = netsim::penalty_pct(
        cash_m.throughput_rps, base.throughput_rps);
    const double space = overhead_pct(
        static_cast<double>(gcc.program->code_size().total_bytes),
        static_cast<double>(cash_c.program->code_size().total_bytes));

    std::printf("%-10s %8.2f%% %10.2f%% %8.1f%% %13.1f%% %13.1f%% %13.1f%%\n",
                w.name.c_str(), latency_penalty, throughput_penalty, space,
                paper_lat[i], paper_thr[i], paper_space[i]);
    ++i;
  }

  print_note(
      "\nPaper finding to reproduce: single-digit latency penalties, with");
  print_note(
      "Sendmail worst (most spilled loops + most address-rewriting buffers)");
  print_note(
      "and the ftp daemons best; throughput penalty slightly below latency");
  print_note("penalty (forks overlap with network time).");
  print_note("(Set CASH_BENCH_REQUESTS=200 for a quick run.)");
  return 0;
}
