// The bit-identity contract, field by field: a copy that differs in one
// simulated field is reported under exactly that field's path, and one
// that differs in a host-only field is not reported at all.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/run_result_compare.hpp"
#include "netsim/netsim.hpp"
#include "passes/optimize.hpp"
#include "vm/decode.hpp"

namespace cash {
namespace {

template <class V>
void perturb(V& value) {
  if constexpr (std::is_same_v<V, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<V>) {
    value = static_cast<V>(static_cast<std::underlying_type_t<V>>(value) + 1);
  } else if constexpr (std::is_arithmetic_v<V>) {
    value += 1;
  } else {
    value += "x";
  }
}

template <class T>
std::vector<std::string> paths(const T& s) {
  std::vector<std::string> out;
  stats::for_each_field(
      s, [&](const std::string& path, const auto&) { out.push_back(path); });
  return out;
}

// Perturbs each leaf of `base` in turn. Returns the paths `compare` does
// not report, after checking that it reports every other one by its path.
template <class T, class Compare>
std::vector<std::string> unreported_fields(const T& base, Compare compare) {
  const std::vector<std::string> all = paths(base);
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), all.size());
  std::vector<std::string> unreported;
  for (std::size_t k = 0; k < all.size(); ++k) {
    T copy = base;
    std::size_t leaf = 0;
    stats::for_each_field(copy, [&](const std::string&, auto& value) {
      if (leaf++ == k) {
        perturb(value);
      }
    });
    const std::string diff = compare(base, copy);
    if (diff.empty()) {
      unreported.push_back(all[k]);
    } else {
      EXPECT_EQ(diff, all[k]);
    }
  }
  return unreported;
}

std::vector<std::string> with_prefix(const std::vector<std::string>& all,
                                     std::vector<std::string> prefixes) {
  std::vector<std::string> out;
  for (const std::string& path : all) {
    for (const std::string& prefix : prefixes) {
      if (path.starts_with(prefix)) {
        out.push_back(path);
      }
    }
  }
  return out;
}

vm::RunResult full_run_result() {
  vm::RunResult r;
  r.fault = Fault{};
  r.profile["f"] = {};
  r.profile["main"] = {};
  return r;
}

netsim::ServerMetrics full_server_metrics() {
  netsim::ServerMetrics m;
  m.classes.resize(2);
  m.classes[0].name = "default";
  m.classes[1].name = "heavy";
  return m;
}

TEST(StatsSchema, EveryRunResultFieldIsReportedUnderItsPath) {
  const vm::RunResult base = full_run_result();
  const std::vector<std::string> all = paths(base);
  EXPECT_EQ(with_prefix(all, {"counters.sw_checks", "fault.kind",
                              "fault_stats.hits[0]", "profile[f].self_cycles"})
                .size(),
            4U);
  EXPECT_EQ(unreported_fields(base, vm::first_run_result_difference),
            with_prefix(all, {"tlb_stats.", "trace_stats."}));
}

TEST(StatsSchema, EveryServerMetricsFieldIsReportedUnderItsPath) {
  const netsim::ServerMetrics base = full_server_metrics();
  const std::vector<std::string> all = paths(base);
  EXPECT_EQ(with_prefix(all, {"classes[default].p99_latency_cycles",
                              "classes[heavy].name"})
                .size(),
            2U);
  EXPECT_EQ(unreported_fields(base, netsim::first_metrics_difference),
            with_prefix(all, {"pool."}));
}

TEST(StatsSchema, ShapeDifferencesAreReported) {
  const vm::RunResult base = full_run_result();
  vm::RunResult r = base;
  r.fault.reset();
  EXPECT_EQ(vm::first_run_result_difference(base, r), "fault.has_value");
  r = base;
  r.profile["g"] = {};
  EXPECT_EQ(vm::first_run_result_difference(base, r), "profile.size");
  r.profile.erase("f");
  EXPECT_EQ(vm::first_run_result_difference(base, r), "profile[f]");

  const netsim::ServerMetrics metrics = full_server_metrics();
  netsim::ServerMetrics m = metrics;
  m.classes.pop_back();
  EXPECT_EQ(netsim::first_metrics_difference(metrics, m), "classes.size");
}

// Leaf i is i in `a` and 10 i in `b`, so a += b gives 11 i everywhere.
template <class T>
void expect_field_wise_sum() {
  T a;
  T b;
  std::uint64_t i = 0;
  stats::for_each_field(a, [&](const std::string&, auto& v) { v = ++i; });
  i = 0;
  stats::for_each_field(b, [&](const std::string&, auto& v) { v = 10 * ++i; });
  a += b;
  i = 0;
  stats::for_each_field(a, [&](const std::string& path, const auto& v) {
    EXPECT_EQ(v, 11 * ++i) << path;
  });
}

TEST(StatsSchema, PlusEqualsAddsEveryField) {
  expect_field_wise_sum<passes::LowerStats>();
  expect_field_wise_sum<passes::ElideStats>();
  expect_field_wise_sum<passes::OptStats>();
  expect_field_wise_sum<vm::FusionStats>();
}

} // namespace
} // namespace cash
