#pragma once

#include <string>

#include "ir/function.hpp"

namespace cash::ir {

// Textual IR dump, one instruction per line — for debugging and for tests
// that assert on instrumentation placement.
std::string to_text(const Instr& instr, const Function& function);
std::string to_text(const Function& function);
std::string to_text(const Module& module);

} // namespace cash::ir
