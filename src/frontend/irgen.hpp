#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/diagnostics.hpp"
#include "frontend/ast.hpp"
#include "ir/function.hpp"

namespace cash::frontend {

// Compiles MiniC source to a (NoCheck) IR module: lex + parse + semantic
// analysis + IR generation. Bound-checking instrumentation is added later by
// the lowering passes in src/passes, so all three compiler modes share this
// exact front-end output (mirroring GCC/BCC/Cash sharing one code base).
//
// Returns nullptr when `diagnostics` accumulated errors.
std::unique_ptr<ir::Module> compile_to_ir(std::string_view source,
                                          DiagnosticSink& diagnostics);

} // namespace cash::frontend
