#include "common/diagnostics.hpp"

#include <sstream>

namespace cash {

namespace {
const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError:   return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote:    return "note";
  }
  return "?";
}
} // namespace

std::string DiagnosticSink::to_string() const {
  std::ostringstream out;
  for (const Diagnostic& d : diags_) {
    out << d.loc.line << ':' << d.loc.column << ": "
        << severity_name(d.severity) << ": " << d.message << '\n';
  }
  if (unstored_errors_ > 0) {
    out << unstored_errors_ << " more error"
        << (unstored_errors_ == 1 ? "" : "s") << '\n';
  }
  return out.str();
}

std::string format_fault(const Fault& fault) {
  std::ostringstream out;
  out << to_string(fault.kind) << ": " << fault.detail;
  if (fault.selector != 0) {
    out << " (selector 0x" << std::hex << fault.selector << ")";
  }
  if (fault.linear_address != 0) {
    out << " (linear 0x" << std::hex << fault.linear_address << ")";
  }
  return out.str();
}

} // namespace cash
