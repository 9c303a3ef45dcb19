#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cash::faultinject {

// Deterministic fault-injection layer (DESIGN.md §8). The paper's design is
// a chain of fallbacks — LDT exhaustion → global segment, spilled arrays →
// software checks, oversized arrays → 4 KB-granular limits — and this layer
// exists to force those degraded paths on demand so the test suite can
// prove they stay correct and correctly accounted.
//
// Contract:
//   * Off by default and bit-transparent: with an empty plan every
//     simulated cycle, counter and output is byte-identical to a build
//     without the layer (FaultInjectTransparency.* enforce this, for
//     machine runs and for the serving loop).
//   * Deterministic and replayable: firing is a pure function of
//     (plan, seed, per-site hit index) — never of wall clock, host thread
//     count or address-space layout. A fixed (seed, plan) replays
//     identically at any jobs value.
//   * Serializable: FaultPlan round-trips through JSON so a failing chaos
//     cell can be reproduced from its recorded plan alone.

// Named injection sites. Each site is a single decision point in the
// simulator; the owning component consults the injector exactly once per
// architectural event, so hit indices are stable coordinates.
enum class FaultSite : std::uint8_t {
  kSegAllocate = 0,   // SegmentManager::allocate → force LDT-exhaustion path
  kSegCacheProbe,     // SegmentManager::allocate → force 3-entry cache miss
  kCallGateBusy,      // KernelSim::cash_modify_ldt → gate bounces (busy)
  kPhysFrameAlloc,    // PhysicalMemory::allocate_frame → frames exhausted
  kHeapAlloc,         // CashHeap::allocate → simulated malloc failure
  kNetRequestTimeout, // netsim request attempt → simulated network timeout
  kLdtCrossTenant,    // KernelSim::cash_modify_ldt → shared LDT slot budget
                      // exhausted by co-tenants (install degrades to the
                      // global segment; neighbors must be unaffected)
};
inline constexpr int kNumFaultSites = 7;

// Canonical site names used by the JSON form ("seg-allocate", ...).
const char* to_string(FaultSite site) noexcept;
bool site_from_string(const std::string& name, FaultSite* out) noexcept;

// When a rule fires. A site's events are numbered 0, 1, 2, ... (the hit
// index); the rule is eligible on hits start, start+period, start+2*period,
// ..., fires at most max_fires times (0 = unlimited), and on each eligible
// hit fires with probability 1/one_in decided by the injector's seeded RNG
// (one_in <= 1 = always).
struct FaultRule {
  FaultSite site{FaultSite::kSegAllocate};
  std::uint64_t start{0};
  std::uint64_t period{1};
  std::uint64_t max_fires{0};
  std::uint32_t one_in{1};

  bool operator==(const FaultRule&) const = default;
};

// A complete, serializable chaos scenario.
struct FaultPlan {
  // Mixed into the injector RNG; perturbing it (netsim adds the request
  // index) varies probabilistic rules while staying replayable.
  std::uint32_t seed{0};
  // Retry budget for netsim request timeouts: a request is re-attempted at
  // most this many times before it is reported as failed.
  int net_retry_budget{2};
  std::vector<FaultRule> rules;

  bool empty() const noexcept { return rules.empty(); }
  bool targets(FaultSite site) const noexcept;

  bool operator==(const FaultPlan&) const = default;

  // JSON round-trip:
  //   {"seed": 7, "net_retry_budget": 2, "rules": [
  //     {"site": "seg-allocate", "start": 0, "period": 1,
  //      "max_fires": 0, "one_in": 1}]}
  std::string to_json() const;
  // Parses the format to_json() emits (whitespace-insensitive). Returns
  // false (and leaves *out untouched) on malformed input.
  static bool from_json(const std::string& json, FaultPlan* out);
};

// Per-site injection counters, snapshotted into vm::RunResult.
struct FaultStats {
  std::array<std::uint64_t, kNumFaultSites> hits{};     // decisions consulted
  std::array<std::uint64_t, kNumFaultSites> injected{}; // decisions that fired

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t n : injected) {
      sum += n;
    }
    return sum;
  }
  std::uint64_t hits_at(FaultSite site) const noexcept {
    return hits[static_cast<int>(site)];
  }
  std::uint64_t injected_at(FaultSite site) const noexcept {
    return injected[static_cast<int>(site)];
  }
};

// The runtime decision engine. One injector per simulated machine (plus one
// per netsim request for the network site), so per-site hit counters are
// single-threaded and deterministic by construction.
class FaultInjector {
 public:
  // Never fires; the empty plan costs one branch per consultation.
  FaultInjector() = default;

  // `seed` is the owner's deterministic identity (the machine's rng_seed,
  // netsim's seed_base + request index); it is mixed with plan.seed so the
  // same plan perturbs differently across owners but identically across
  // replays of the same owner.
  FaultInjector(const FaultPlan& plan, std::uint32_t seed);

  // True when the plan has at least one rule. Components skip their
  // injection branch entirely when unarmed, keeping the empty-plan fast
  // path free of bookkeeping.
  bool armed() const noexcept { return !rules_.empty(); }

  // Advances the site's hit counter and reports whether a fault fires on
  // this event. Unarmed injectors return false without counting.
  bool should_inject(FaultSite site) noexcept;

  const FaultStats& stats() const noexcept { return stats_; }

 private:
  struct RuleState {
    FaultRule rule;
    std::uint64_t fired{0};
  };

  std::uint32_t next_random() noexcept; // xorshift32, seeded in the ctor

  std::vector<RuleState> rules_;
  FaultStats stats_;
  std::uint32_t rng_state_{1};
};

} // namespace cash::faultinject
