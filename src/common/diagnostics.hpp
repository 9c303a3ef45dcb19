#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace cash {

// Position in a MiniC source buffer (1-based, like every compiler).
struct SourceLoc {
  int line{0};
  int column{0};
};

enum class Severity : std::uint8_t { kError, kWarning, kNote };

struct Diagnostic {
  Severity severity{Severity::kError};
  SourceLoc loc;
  std::string message;
};

// Accumulates front-end diagnostics; the driver decides whether to abort.
// Only the first kMaxStored are kept, so a hostile input cannot grow memory
// through its errors: error_count() still counts every error, and
// to_string() ends with one line counting the errors it does not show.
class DiagnosticSink {
 public:
  static constexpr std::size_t kMaxStored = 100;

  void error(SourceLoc loc, std::string message) {
    ++error_count_;
    if (diags_.size() < kMaxStored) {
      diags_.push_back({Severity::kError, loc, std::move(message)});
    } else {
      ++unstored_errors_;
    }
  }
  void warning(SourceLoc loc, std::string message) {
    if (diags_.size() < kMaxStored) {
      diags_.push_back({Severity::kWarning, loc, std::move(message)});
    }
  }

  bool has_errors() const noexcept { return error_count_ > 0; }
  int error_count() const noexcept { return error_count_; }
  const std::vector<Diagnostic>& diagnostics() const noexcept { return diags_; }

  // Stored diagnostics rendered one-per-line: "line:col: error: message",
  // then "<M> more errors" if M errors were not stored.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> diags_;
  int error_count_{0};
  int unstored_errors_{0};
};

// Renders a simulated fault as the single-line, user-facing message:
//
//   <kind>: <detail> (selector 0x<sel>) (linear 0x<addr>)
//
// with the selector/linear suffixes present only when the fault carries
// them. This is the one rendering every tool and report goes through, and
// its exact text is locked by tests/common/fault_golden_test.cpp — change
// it only together with those goldens.
std::string format_fault(const Fault& fault);

} // namespace cash
