#include "workloads/fuzz.hpp"

#include <random>
#include <sstream>
#include <vector>

#include "core/cash.hpp"

namespace cash::workloads {

namespace {

class Generator {
 public:
  explicit Generator(std::uint32_t seed) : rng_(seed) {}

  std::string run() {
    const int num_globals = pick(1, 3);
    for (int i = 0; i < num_globals; ++i) {
      Array array;
      array.name = "g";
      array.name += std::to_string(i);
      array.size = pick(4, 64);
      arrays_.push_back(array);
      out_ << "int " << array.name << "[" << array.size << "];\n";
    }

    // A monotone runtime-bound walk (always called with n == the array's
    // size, so every access is in bounds): the canonical target for the
    // elision pass's loop hoisting — affine index, invariant bound, single
    // preheader interval check.
    out_ << "int walk(int *p, int n) {\n"
         << "  int acc = 0;\n"
         << "  int i;\n"
         << "  for (i = 0; i < n; i++) {\n"
         << "    acc = acc + p[i];\n"
         << "  }\n"
         << "  return acc;\n"
         << "}\n\n";

    // A strlen-style sentinel scan: data-dependent trip count and an index
    // stepped inside a while body. A correct elision pass must leave these
    // checks alone (the bound is not loop-invariant); the matrix proves the
    // scan still runs identically with elision on.
    out_ << "int scan(int *p, int n) {\n"
         << "  int j = 0;\n"
         << "  int len = 0;\n"
         << "  while (p[j] != 0) {\n"
         << "    len = len + 1;\n"
         << "    j = j + 1;\n"
         << "  }\n"
         << "  return len + n;\n"
         << "}\n\n";

    // A helper function with its own local array, exercising per-call
    // segment set-up and the pointer-parameter path.
    helper_array_size_ = pick(4, 16);
    out_ << "int helper(int *p, int n, int x) {\n"
         << "  int scratch[" << helper_array_size_ << "];\n"
         << "  int i;\n"
         << "  int acc = 0;\n"
         << "  for (i = 0; i < " << helper_array_size_ << "; i++) {\n"
         << "    scratch[i] = x + i;\n"
         << "  }\n"
         << "  for (i = 0; i < n; i++) {\n"
         << "    acc = acc + p[((i * " << pick(1, 7) << " + x) & 1023) % n]"
         << " + scratch[(acc & 1023) % " << helper_array_size_ << "];\n"
         << "  }\n"
         << "  return acc;\n"
         << "}\n\n";

    out_ << "int main() {\n";
    const int num_scalars = pick(3, 5);
    for (int i = 0; i < num_scalars; ++i) {
      scalars_.emplace_back("v");
      scalars_.back() += std::to_string(i);
      out_ << "  int v" << i << " = " << pick(0, 9) << ";\n";
    }
    out_ << "  int i0;\n  int i1;\n  int sum = 0;\n";

    // A local array in main, too.
    Array local;
    local.name = "buf";
    local.size = pick(8, 32);
    arrays_.push_back(local);
    out_ << "  int buf[" << local.size << "];\n";
    out_ << "  for (i0 = 0; i0 < " << local.size
         << "; i0++) { buf[i0] = i0; }\n";

    const int num_stmts = pick(4, 8);
    for (int i = 0; i < num_stmts; ++i) {
      emit_statement(2);
    }

    // Pointer walk over a random array.
    const Array& walk = arrays_[pick_index(arrays_.size())];
    out_ << "  {\n    int *p;\n    p = " << walk.name << ";\n"
         << "    for (i0 = 0; i0 < " << walk.size << "; i0++) {\n"
         << "      sum = sum + *p;\n      p++;\n    }\n  }\n";

    out_ << "  sum = sum + helper(" << arrays_[0].name << ", "
         << arrays_[0].size << ", " << pick(0, 15) << ");\n";

    // Monotone walk over every array at its exact size (hoist fodder), and
    // a sentinel scan with a guaranteed terminator in the last slot.
    for (const Array& a : arrays_) {
      out_ << "  sum = sum + walk(" << a.name << ", " << a.size << ");\n";
    }
    const Array& scanned = arrays_[pick_index(arrays_.size())];
    out_ << "  " << scanned.name << "[" << (scanned.size - 1) << "] = 0;\n"
         << "  sum = sum + scan(" << scanned.name << ", " << scanned.size
         << ");\n";

    out_ << "  print_int(sum);\n  return sum;\n}\n";
    return out_.str();
  }

 private:
  struct Array {
    std::string name;
    int size;
  };

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::size_t pick_index(std::size_t n) {
    return static_cast<std::size_t>(pick(0, static_cast<int>(n) - 1));
  }

  // A random scalar expression over declared variables and constants.
  // Depth-bounded; division only by non-zero constants.
  std::string expr(int depth) {
    if (depth == 0 || pick(0, 2) == 0) {
      if (pick(0, 1) == 0) {
        return std::to_string(pick(1, 99));
      }
      return scalars_[pick_index(scalars_.size())];
    }
    static const char* kOps[] = {" + ", " - ", " * ", " & ",
                                 " | ", " ^ ", " / ", " % "};
    const int op = pick(0, 7);
    // The right operand is generated first, so every seed keeps the
    // program it has always generated.
    const std::string rhs =
        op < 6 ? expr(depth - 1)
               : std::to_string(op == 6 ? pick(1, 9) : pick(2, 16));
    std::string out = "(";
    out += expr(depth - 1);
    out += kOps[op];
    out += rhs;
    out += ')';
    return out;
  }

  // An always-in-bounds index into `array`.
  std::string index_of(const Array& array, int depth) {
    return "((" + expr(depth) + ") & 8191) % " + std::to_string(array.size);
  }

  void emit_statement(int depth) {
    switch (pick(0, 7)) {
      case 0: { // scalar update
        out_ << "  " << scalars_[pick_index(scalars_.size())] << " = "
             << expr(2) << ";\n";
        break;
      }
      case 1: { // array store
        const Array& a = arrays_[pick_index(arrays_.size())];
        out_ << "  " << a.name << "[" << index_of(a, 1) << "] = " << expr(2)
             << ";\n";
        break;
      }
      case 2: { // accumulate from an array
        const Array& a = arrays_[pick_index(arrays_.size())];
        out_ << "  sum = sum + " << a.name << "[" << index_of(a, 1)
             << "];\n";
        break;
      }
      case 3: { // conditional
        out_ << "  if (" << expr(1) << " > " << pick(0, 50) << ") {\n  ";
        emit_statement(depth - 1);
        out_ << "  } else {\n  ";
        emit_statement(depth - 1);
        out_ << "  }\n";
        break;
      }
      case 4: { // counted loop over one or two arrays
        const Array& a = arrays_[pick_index(arrays_.size())];
        const Array& b = arrays_[pick_index(arrays_.size())];
        out_ << "  for (i1 = 0; i1 < " << pick(2, 20) << "; i1++) {\n"
             << "    " << a.name << "[((i1 * " << pick(1, 5) << " + "
             << pick(0, 3) << ") & 8191) % " << a.size << "] = " << b.name
             << "[((i1 + sum) & 8191) % " << b.size << "] + " << pick(0, 9)
             << ";\n"
             << "    sum = sum + " << a.name << "[(i1 & 8191) % " << a.size
             << "];\n"
             << "  }\n";
        break;
      }
      case 5: { // unmasked monotone loop: provably in-bounds, the elision
                // pass's constant-range deletion target
        const Array& a = arrays_[pick_index(arrays_.size())];
        const int bound = pick(1, a.size);
        out_ << "  for (i1 = 0; i1 < " << bound << "; i1++) {\n"
             << "    " << a.name << "[i1] = " << a.name << "[i1] + "
             << pick(1, 9) << ";\n"
             << "    sum = sum + " << a.name << "[i1];\n"
             << "  }\n";
        break;
      }
      case 6: { // decreasing monotone loop over a whole array
        const Array& a = arrays_[pick_index(arrays_.size())];
        out_ << "  for (i1 = " << (a.size - 1) << "; i1 >= 0; i1--) {\n"
             << "    sum = sum + " << a.name << "[i1];\n"
             << "  }\n";
        break;
      }
      default: { // while loop with a decreasing counter
        out_ << "  i1 = " << pick(1, 12) << ";\n"
             << "  while (i1 > 0) {\n"
             << "    sum = sum + i1 * " << pick(1, 4) << ";\n"
             << "    i1--;\n"
             << "  }\n";
        break;
      }
    }
  }

  std::mt19937 rng_;
  std::ostringstream out_;
  std::vector<Array> arrays_;
  std::vector<std::string> scalars_;
  int helper_array_size_{8};
};

} // namespace

std::string generate_fuzz_program(std::uint32_t seed) {
  return Generator(seed).run();
}

const std::vector<FuzzConfig>& fuzz_configs() {
  static const std::vector<FuzzConfig> kConfigs = [] {
    std::vector<FuzzConfig> configs;
    for (bool elide : {false, true}) {
      for (bool optimize : {false, true}) {
        for (passes::CheckMode mode :
             {passes::CheckMode::kNoCheck, passes::CheckMode::kBcc,
              passes::CheckMode::kCash, passes::CheckMode::kBoundInsn,
              passes::CheckMode::kEfence}) {
          configs.push_back({mode, optimize, elide});
        }
      }
    }
    // Trace-off arm: the superblock engine must be invisible, so any
    // divergence between these cells and their trace-on twins above is a
    // trace bug by construction.
    for (bool optimize : {false, true}) {
      for (passes::CheckMode mode :
           {passes::CheckMode::kNoCheck, passes::CheckMode::kBcc,
            passes::CheckMode::kCash, passes::CheckMode::kBoundInsn,
            passes::CheckMode::kEfence}) {
        configs.push_back({mode, optimize, /*elide=*/false, /*trace=*/false});
      }
    }
    return configs;
  }();
  return kConfigs;
}

namespace {

std::string config_label(const FuzzConfig& config) {
  std::string label = std::string(passes::to_string(config.mode)) +
                      " opt=" + (config.optimize ? "1" : "0");
  if (config.elide) {
    label += " elide=1";
  }
  if (!config.trace) {
    label += " trace=0";
  }
  return label;
}

// Outcome of one (seed, config) cell: compiled+ran cleanly, and the
// program's print stream for the cross-config comparison.
struct CellResult {
  bool ok{false};
  std::string detail;
  std::string output;
};

CellResult run_cell(std::uint32_t seed, const FuzzConfig& config) {
  CellResult cell;
  const std::string source = generate_fuzz_program(seed);
  CompileOptions options;
  options.lower.mode = config.mode;
  options.optimize = config.optimize;
  options.lower.elide_checks = config.elide;
  options.machine.enable_trace = config.trace;
  CompileResult compiled = compile(source, options);
  if (!compiled.ok()) {
    cell.detail = "compile failed: " + compiled.error;
    return cell;
  }
  const vm::RunResult run = compiled.program->run();
  if (!run.ok) {
    cell.detail =
        "run failed: " + (run.fault ? run.fault->detail : run.error);
    return cell;
  }
  cell.ok = true;
  cell.output = run.output;
  return cell;
}

} // namespace

std::vector<FuzzDivergence> run_fuzz_matrix(
    std::uint32_t seed_begin, std::uint32_t seed_end,
    const exec::ExecutorConfig& executor) {
  std::vector<FuzzDivergence> divergences;
  if (seed_end <= seed_begin) {
    return divergences;
  }
  const std::vector<FuzzConfig>& configs = fuzz_configs();
  const std::size_t num_seeds = seed_end - seed_begin;
  const std::size_t num_cells = num_seeds * configs.size();

  // Fan the whole (seed x config) matrix out as independent cells; results
  // land in index-ordered slots so the reduction below never depends on
  // thread scheduling.
  const std::vector<CellResult> cells = exec::parallel_map(
      num_cells, executor.jobs, [&](std::size_t index) {
        const std::uint32_t seed =
            seed_begin + static_cast<std::uint32_t>(index / configs.size());
        return run_cell(seed, configs[index % configs.size()]);
      });

  // Reduce per seed, in (seed, config) order: config 0 (NoCheck,
  // unoptimised) is the reference every other cell must match.
  for (std::size_t s = 0; s < num_seeds; ++s) {
    const std::uint32_t seed = seed_begin + static_cast<std::uint32_t>(s);
    const CellResult& reference = cells[s * configs.size()];
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const CellResult& cell = cells[s * configs.size() + c];
      if (!cell.ok) {
        divergences.push_back({seed, config_label(configs[c]), cell.detail});
      } else if (reference.ok && cell.output != reference.output) {
        divergences.push_back(
            {seed, config_label(configs[c]),
             "output diverged from " + config_label(configs[0])});
      }
    }
  }
  return divergences;
}

} // namespace cash::workloads
