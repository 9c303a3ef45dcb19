#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/stats_schema.hpp"

namespace cash {

// Hardware exception classes raised by the simulated x86 MMU, following the
// IA-32 exception model the paper relies on.
enum class FaultKind : std::uint8_t {
  kGeneralProtection, // #GP: segment-limit violation, null-selector use, ...
  kSegmentNotPresent, // #NP: descriptor present bit clear
  kStackFault,        // #SS: SS-relative limit violation
  kPageFault,         // #PF: unmapped / protected page
  kInvalidOpcode,     // #UD
  kBoundRange,        // #BR: `bound` instruction range exceeded
  // Simulator-level conditions (not IA-32 exceptions): structured so that
  // resource exhaustion and injected contention surface as RunResult.fault
  // with a precise kind instead of an untyped error string.
  kResourceExhausted, // simulated heap / physical-frame pool empty
  kGateBusy,          // Cash call gate bounced (injected contention)
};

const char* to_string(FaultKind kind) noexcept;

// A simulated processor fault. Carries enough context for the bound-checking
// layers to produce a precise diagnostic (which object, which address).
struct Fault {
  FaultKind kind{FaultKind::kGeneralProtection};
  std::uint32_t linear_address{0}; // address that faulted (if address-formed)
  std::uint16_t selector{0};       // selector in use (if segment-related)
  std::string detail;              // human-readable context
};
#define CASH_FAULT_FIELDS(X, HOST) \
  X(kind) X(linear_address) X(selector) X(detail)
CASH_STATS_SCHEMA(Fault, CASH_FAULT_FIELDS)

// Exception wrapper used where a fault must abort simulation.
class FaultException : public std::runtime_error {
 public:
  explicit FaultException(Fault fault)
      : std::runtime_error(std::string(to_string(fault.kind)) + ": " +
                           fault.detail),
        fault_(std::move(fault)) {}

  const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

} // namespace cash
