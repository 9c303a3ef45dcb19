// cashc — the Cash compiler driver. Compiles a MiniC source file under a
// chosen bound-checking strategy, optionally dumps IR and static stats, and
// runs it on the simulated Pentium-III.
//
// Usage:
//   cashc [options] program.mc
//
// Options:
//   --mode=gcc|bcc|cash|bound|efence   checking strategy (default cash)
//   --seg-regs=N                       segment registers for Cash (2..4)
//   --no-reads                         security-only mode: skip read checks
//   --elide                            whole-program check elision pass
//   --no-opt                           disable the -O9-style optimiser
//   --dump-ir                          print the lowered IR and exit
//   --emit-asm                         print an x86 assembly listing (AT&T)
//   --use-ss                           Section 3.7 PUSH/POP rewriting in asm
//   --stats                            print every stats field (below)
//   --no-run                           compile only
//   --seed=N                           rand() seed for the run
//
// --stats prints one `path value` line per field of the stats schema
// (common/stats_schema.hpp): the static stats before the run, prefixed
// `lower.`, `elide.`, `fusion.`, `program.` and `code_size.`, and the
// RunResult after it, unprefixed (`cycles`, `counters.sw_checks`,
// `segment_stats.cache_hits`, `breakdown.checking`, `fault.kind`, ...).
// Numbers print in decimal, booleans as true/false, strings and enum names
// quoted, with `\n`, `\"` and `\\` escaped.
//
// Exit status: 0 when the program's `main` returns 0; 3 when it returns
// anything else (stderr names the value, and --stats prints it as
// `exit_code`); 1 for a compile error or a run that ends without a
// simulated fault (the instruction budget, say); 2 for a usage error; 139
// for a simulated fault; 70 when the run ended on a simulator limit (host
// memory, a loader limit). The program's own code never passes through, so
// it cannot be read as one of cashc's.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "backend/x86_asm.hpp"
#include "core/cash.hpp"
#include "ir/printer.hpp"
#include "vm/decode.hpp"

namespace {

constexpr int kExitFault = 139; // like a SIGSEGV exit
constexpr int kExitSimulatorLimit = 70; // EX_SOFTWARE in sysexits.h
constexpr int kExitMainNonzero = 3;

std::string format_value(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

template <class T>
std::string format_value(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    return format_value(std::string(to_string(value)));
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
}

template <class T>
void print_stats(const char* prefix, const T& stats) {
  cash::stats::for_each_field(
      stats, [prefix](const std::string& path, const auto& value) {
        std::printf("%s%s %s\n", prefix, path.c_str(),
                    format_value(value).c_str());
      });
}

void usage() {
  std::fprintf(stderr,
               "usage: cashc [--mode=gcc|bcc|cash|bound|efence|shadow] "
               "[--seg-regs=N] [--no-reads] [--elide] [--no-opt] "
               "[--dump-ir] [--emit-asm] [--use-ss] [--stats] [--no-run] "
               "[--seed=N] program.mc\n");
}

bool parse_mode(const std::string& name, cash::passes::CheckMode& mode) {
  using cash::passes::CheckMode;
  if (name == "gcc") { mode = CheckMode::kNoCheck; return true; }
  if (name == "bcc") { mode = CheckMode::kBcc; return true; }
  if (name == "cash") { mode = CheckMode::kCash; return true; }
  if (name == "bound") { mode = CheckMode::kBoundInsn; return true; }
  if (name == "efence") { mode = CheckMode::kEfence; return true; }
  if (name == "shadow") { mode = CheckMode::kShadow; return true; }
  return false;
}

} // namespace

int main(int argc, char** argv) {
  cash::CompileOptions options;
  options.lower.mode = cash::passes::CheckMode::kCash;
  bool dump_ir = false;
  bool emit_asm = false;
  bool use_ss = false;
  bool show_stats = false;
  bool run = true;
  std::string input_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      if (!parse_mode(arg.substr(7), options.lower.mode)) {
        std::fprintf(stderr, "cashc: unknown mode '%s'\n",
                     arg.substr(7).c_str());
        return 2;
      }
    } else if (arg.rfind("--seg-regs=", 0) == 0) {
      options.lower.num_seg_regs = std::atoi(arg.c_str() + 11);
      if (options.lower.num_seg_regs < 1 || options.lower.num_seg_regs > 4) {
        std::fprintf(stderr, "cashc: --seg-regs must be 1..4\n");
        return 2;
      }
    } else if (arg == "--no-reads") {
      options.lower.check_reads = false;
    } else if (arg == "--elide") {
      options.lower.elide_checks = true;
    } else if (arg == "--no-opt") {
      options.optimize = false;
    } else if (arg == "--dump-ir") {
      dump_ir = true;
    } else if (arg == "--emit-asm") {
      emit_asm = true;
    } else if (arg == "--use-ss") {
      use_ss = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--no-run") {
      run = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.machine.rng_seed =
          static_cast<std::uint32_t>(std::strtoul(arg.c_str() + 7, nullptr, 0));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cashc: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      std::fprintf(stderr, "cashc: more than one input file\n");
      return 2;
    }
  }
  if (input_path.empty()) {
    usage();
    return 2;
  }

  std::ifstream file(input_path);
  if (!file) {
    std::fprintf(stderr, "cashc: cannot open '%s'\n", input_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string source = buffer.str();

  cash::CompileResult compiled = cash::compile(source, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s", compiled.error.c_str());
    return 1;
  }

  if (dump_ir) {
    std::fputs(cash::ir::to_text(compiled.program->module()).c_str(), stdout);
    return 0;
  }

  if (emit_asm) {
    cash::backend::AsmOptions asm_options;
    asm_options.use_stack_segreg = use_ss;
    std::fputs(
        cash::backend::emit_module(compiled.program->module(), asm_options)
            .c_str(),
        stdout);
    return 0;
  }

  if (show_stats) {
    const cash::CompiledProgram& program = *compiled.program;
    print_stats("lower.", program.lower_stats());
    print_stats("elide.", program.elide_stats());
    print_stats("fusion.", program.decoded()->fusion_stats());
    print_stats("program.", program.program_stats(options.lower.num_seg_regs));
    print_stats("code_size.", program.code_size());
  }

  if (!run) {
    return 0;
  }

  const cash::vm::RunResult result = compiled.program->run();
  std::fputs(result.output.c_str(), stdout);
  if (show_stats) {
    print_stats("", result);
  }
  if (result.fault.has_value()) {
    std::fprintf(stderr, "cashc: %s: %s\n", to_string(result.fault->kind),
                 result.fault->detail.c_str());
    return kExitFault;
  }
  if (!result.ok) {
    std::fprintf(stderr, "cashc: %s\n", result.error.c_str());
    return result.error.starts_with(cash::vm::kSimulatorLimitPrefix)
               ? kExitSimulatorLimit
               : 1;
  }
  if (result.exit_code != 0) {
    std::fprintf(stderr, "cashc: main returned %d\n", result.exit_code);
    return kExitMainNonzero;
  }
  return 0;
}
