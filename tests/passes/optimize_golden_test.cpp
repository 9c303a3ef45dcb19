// Golden gate for the optimiser: for every workload (micro, macro, network)
// and a fixed range of fuzz programs, the IR text after optimize_module and
// the five OptStats counters must match tests/passes/optimize_expected.txt
// line for line. Any change to what the optimiser emits — not only to what
// the programs compute — fails here.
//
// A deliberate change to the optimiser's output is re-recorded by replacing
// the expected file with the "actual" text this test prints on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/irgen.hpp"
#include "ir/printer.hpp"
#include "passes/optimize.hpp"
#include "workloads/fuzz.hpp"
#include "workloads/workloads.hpp"

namespace cash {
namespace {

constexpr std::uint32_t kFuzzSeedBegin = 1;
constexpr std::uint32_t kFuzzSeedEnd = 201;

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// "<label>: ir=<hash> sr=.. cse=.. copy=.. hoist=.. dead=..", or an error
// line when the source does not compile.
std::string golden_line(const std::string& label, const std::string& source) {
  DiagnosticSink diagnostics;
  std::unique_ptr<ir::Module> module =
      frontend::compile_to_ir(source, diagnostics);
  if (module == nullptr) {
    return label + ": compile error";
  }
  const passes::OptStats s = passes::optimize_module(*module);
  std::ostringstream out;
  out << label << ": ir=" << fnv1a_hex(ir::to_text(*module))
      << " sr=" << s.strength_reduced << " cse=" << s.cse_replaced
      << " copy=" << s.copies_propagated << " hoist=" << s.hoisted
      << " dead=" << s.dead_removed;
  return out.str();
}

std::vector<std::string> actual_lines() {
  std::vector<std::string> lines;
  const std::pair<const char*, const std::vector<workloads::Workload>*>
      suites[] = {{"micro", &workloads::micro_suite()},
                  {"macro", &workloads::macro_suite()},
                  {"network", &workloads::network_suite()}};
  for (const auto& [suite, workloads] : suites) {
    for (const workloads::Workload& w : *workloads) {
      lines.push_back(golden_line(std::string(suite) + "/" + w.name,
                                  w.source));
    }
  }
  for (std::uint32_t seed = kFuzzSeedBegin; seed < kFuzzSeedEnd; ++seed) {
    lines.push_back(golden_line("fuzz/" + std::to_string(seed),
                                workloads::generate_fuzz_program(seed)));
  }
  return lines;
}

TEST(OptimizeGolden, OutputMatchesRecordedFile) {
  const std::string path =
      std::string(CASH_TESTS_DIR) + "/passes/optimize_expected.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    expected.push_back(line);
  }

  const std::vector<std::string> actual = actual_lines();
  std::string actual_text;
  for (const std::string& line : actual) {
    actual_text += line + "\n";
  }
  for (std::size_t i = 0; i < std::max(expected.size(), actual.size());
       ++i) {
    const std::string want = i < expected.size() ? expected[i] : "<none>";
    const std::string got = i < actual.size() ? actual[i] : "<none>";
    if (want != got) {
      FAIL() << path << " line " << (i + 1) << " differs\n  expected: "
             << want << "\n  actual:   " << got
             << "\n--- actual text ---\n"
             << actual_text;
    }
  }
}

} // namespace
} // namespace cash
