#include "core/cash.hpp"

#include <sstream>

#include "frontend/irgen.hpp"
#include "ir/verifier.hpp"
#include "passes/optimize.hpp"
#include "vm/decode.hpp"

namespace cash {

CompiledProgram::CompiledProgram(std::unique_ptr<ir::Module> module,
                                 CompileOptions options, std::string source,
                                 passes::LowerStats lower_stats,
                                 passes::ElideStats elide_stats)
    : module_(std::move(module)),
      options_(options),
      source_(std::move(source)),
      lower_stats_(lower_stats),
      elide_stats_(elide_stats),
      decoded_(std::make_unique<const vm::DecodedProgram>(*module_)) {}

CompiledProgram::~CompiledProgram() = default;

CompileResult compile(std::string_view source, const CompileOptions& options) {
  CompileResult result;

  DiagnosticSink diagnostics;
  std::unique_ptr<ir::Module> module =
      frontend::compile_to_ir(source, diagnostics);
  if (module == nullptr) {
    result.error = diagnostics.to_string();
    if (result.error.empty()) {
      result.error = "compilation failed";
    }
    return result;
  }

  auto check = [&](const char* phase) -> bool {
    if (!options.run_verifier) {
      return true;
    }
    const std::vector<std::string> problems = ir::verify(*module);
    if (problems.empty()) {
      return true;
    }
    std::ostringstream out;
    out << "internal error: IR verification failed after " << phase << ":\n";
    for (const std::string& p : problems) {
      out << "  " << p << '\n';
    }
    result.error = out.str();
    return false;
  };

  if (!check("IR generation")) {
    return result;
  }

  if (options.optimize) {
    passes::optimize_module(*module);
    if (!check("optimisation")) {
      return result;
    }
  }

  // Keep machine config's mode in lock-step with the lowering mode: the VM
  // runtime (segment allocation, fat-pointer costs) keys off it.
  CompileOptions effective = options;
  effective.machine.mode = options.lower.mode;

  passes::ElideStats elide_stats;
  if (effective.lower.elide_checks) {
    elide_stats = passes::elide_module(*module, effective.lower);
    if (!check("check elision")) {
      return result;
    }
  }

  const passes::LowerStats stats =
      passes::lower_module(*module, effective.lower);

  if (!check("lowering")) {
    return result;
  }

  result.program = std::make_unique<CompiledProgram>(
      std::move(module), effective, std::string(source), stats, elide_stats);
  return result;
}

} // namespace cash
