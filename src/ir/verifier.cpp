#include "ir/verifier.hpp"

#include <algorithm>
#include <sstream>

#include "common/dense_table.hpp"

namespace cash::ir {

namespace {

// Per-thread tables reused across calls, so verifying a valid module
// allocates nothing once they have grown.
struct Scratch {
  StampedSet body;
  StampedSet parent_body;
  std::vector<SymbolKind> symbols;
  std::vector<std::size_t> order; // function indices sorted by name
  std::vector<char> duplicate;    // by function index
};

Scratch& scratch() {
  thread_local Scratch tables;
  return tables;
}

// Loads a loop body into `set`. Ids outside [0, blocks) cannot be stamped;
// `contains` falls back to scanning the body for them.
void load_body(StampedSet& set, const Loop& loop, std::size_t blocks) {
  set.clear(blocks);
  for (BlockId b : loop.body) {
    if (b >= 0 && static_cast<std::size_t>(b) < blocks) {
      set.insert(b);
    }
  }
}

bool contains(const StampedSet& set, const Loop& loop, BlockId b,
              std::size_t blocks) {
  if (b >= 0 && static_cast<std::size_t>(b) < blocks) {
    return set.contains(b);
  }
  return std::find(loop.body.begin(), loop.body.end(), b) != loop.body.end();
}

// Appends "<f>: block <name> instr <i><what>", or "<f>: <what>" when
// `what` does not begin with ':'. Out of line: the checks run on every
// instruction, the messages almost never.
[[gnu::cold, gnu::noinline]] void instr_problem(
    std::vector<std::string>& problems, const Function& f,
    const BasicBlock& block, std::size_t i, const char* what) {
  std::ostringstream msg;
  msg << f.name << ": ";
  if (what[0] == ':') {
    msg << "block " << block.name << " instr " << i;
  }
  msg << what;
  problems.push_back(msg.str());
}

void check_function(const Function& f, const std::vector<SymbolKind>* symbols,
                    std::vector<std::string>& problems, Scratch& scratch) {
  auto complain = [&](const std::string& what) {
    problems.push_back(f.name + ": " + what);
  };

  if (const char* what = function_problem(f)) {
    complain(what);
    return;
  }
  for (const auto& block : f.blocks) {
    if (block->instrs.empty() || block->terminator() == nullptr) {
      std::ostringstream msg;
      msg << "block " << block->name << " (#" << block->id
          << ") lacks a terminator";
      complain(msg.str());
      continue;
    }
    const std::size_t n = block->instrs.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Instr& instr = block->instrs[i];
      const auto report = [&](const char* what) {
        instr_problem(problems, f, *block, i, what);
      };
      if (instr.is_terminator() != (i + 1 == n)) {
        report(instr.is_terminator() ? ": terminator in the middle"
                                     : ": non-terminator at the end");
      }
      for_each_problem(f, symbols, instr, report);
    }
  }

  // Loop records must reference valid blocks, with headers inside bodies.
  const std::size_t blocks = f.blocks.size();
  for (const Loop& loop : f.loops) {
    load_body(scratch.body, loop, blocks);
    if (!contains(scratch.body, loop, loop.header, blocks)) {
      complain("loop header not contained in its own body");
    }
    if (contains(scratch.body, loop, loop.preheader, blocks)) {
      complain("loop preheader must be outside the loop body");
    }
    if (loop.parent != kNoLoop) {
      const Loop& parent = f.loops[static_cast<std::size_t>(loop.parent)];
      load_body(scratch.parent_body, parent, blocks);
      for (BlockId b : loop.body) {
        if (!contains(scratch.parent_body, parent, b, blocks)) {
          complain("nested loop body escapes its parent loop");
          break;
        }
      }
    }
  }
}

} // namespace

const char* function_problem(const Function& f) noexcept {
  const std::size_t blocks = f.blocks.size();
  if (f.entry < 0 || static_cast<std::size_t>(f.entry) >= blocks) {
    return "missing or invalid entry block";
  }
  for (std::size_t i = 0; i < blocks; ++i) {
    if (f.blocks[i] == nullptr || f.blocks[i]->id != static_cast<BlockId>(i)) {
      return "a block is null or its id is not its index";
    }
  }
  for (const Param& p : f.params) {
    if (p.slot < 0 || static_cast<std::size_t>(p.slot) >= f.locals.size()) {
      return "parameter slot out of range";
    }
  }
  return nullptr;
}

void symbol_kinds(const Module& module, std::vector<SymbolKind>& kinds) {
  kinds.assign(static_cast<std::size_t>(std::max(module.next_symbol, 0)),
               SymbolKind::kNone);
  for (const GlobalVar& g : module.globals) {
    if (g.symbol >= 0 && static_cast<std::size_t>(g.symbol) < kinds.size()) {
      kinds[static_cast<std::size_t>(g.symbol)] =
          g.is_array ? SymbolKind::kGlobalArray : SymbolKind::kGlobalScalar;
    }
  }
}

std::vector<std::string> verify(const Function& function) {
  std::vector<std::string> problems;
  check_function(function, nullptr, problems, scratch());
  return problems;
}

std::vector<std::string> verify(const Module& module) {
  Scratch& tables = scratch();
  std::vector<std::string> problems;
  symbol_kinds(module, tables.symbols);
  const auto& functions = module.functions;
  for (const auto& f : functions) {
    check_function(*f, &tables.symbols, problems, tables);
  }
  // Every function after the first of its name is a duplicate, reported in
  // module order.
  std::vector<std::size_t>& order = tables.order;
  order.resize(functions.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int c = functions[a]->name.compare(functions[b]->name);
    return c != 0 ? c < 0 : a < b;
  });
  tables.duplicate.assign(functions.size(), 0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (functions[order[i]]->name == functions[order[i - 1]]->name) {
      tables.duplicate[order[i]] = 1;
    }
  }
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (tables.duplicate[i] != 0) {
      problems.push_back("duplicate function name: " + functions[i]->name);
    }
  }
  return problems;
}

} // namespace cash::ir
