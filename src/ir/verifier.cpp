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

// "block <name> instr <i><what>". Out of line: the checks run on every
// instruction, the messages almost never.
[[gnu::cold]] std::string instr_problem(const BasicBlock& block,
                                        std::size_t i, const char* what) {
  std::ostringstream msg;
  msg << "block " << block.name << " instr " << i << what;
  return msg.str();
}

void check_function(const Function& f, std::vector<std::string>& problems,
                    Scratch& scratch) {
  auto complain = [&](const std::string& what) {
    problems.push_back(f.name + ": " + what);
  };

  if (f.entry == kNoBlock ||
      static_cast<std::size_t>(f.entry) >= f.blocks.size()) {
    complain("missing or invalid entry block");
    return;
  }

  const auto bad_reg = [&](Reg r) {
    return r != kNoReg && (r < 0 || r >= f.next_reg);
  };
  const auto bad_target = [&](BlockId t) {
    return t == kNoBlock || static_cast<std::size_t>(t) >= f.blocks.size();
  };
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
      if (instr.is_terminator() != (i + 1 == n)) {
        complain(instr_problem(*block, i,
                               instr.is_terminator()
                                   ? ": terminator in the middle"
                                   : ": non-terminator at the end"));
      }
      if (bad_reg(instr.dst)) {
        complain(instr_problem(*block, i, ": dst register out of range"));
      }
      if (bad_reg(instr.src0)) {
        complain(instr_problem(*block, i, ": src0 register out of range"));
      }
      if (bad_reg(instr.src1)) {
        complain(instr_problem(*block, i, ": src1 register out of range"));
      }
      if (instr.op == Opcode::kCall) {
        if (instr.call < 0 ||
            static_cast<std::size_t>(instr.call) >= f.calls.size()) {
          complain(instr_problem(*block, i, ": call site out of range"));
        } else {
          for (Reg arg : f.call_site(instr).args) {
            if (bad_reg(arg)) {
              complain(instr_problem(*block, i, ": arg register out of range"));
            }
          }
        }
      }
      if ((instr.op == Opcode::kJump || instr.op == Opcode::kBranch) &&
          bad_target(instr.target0)) {
        complain(instr_problem(*block, i, ": branch target out of range"));
      }
      if (instr.op == Opcode::kBranch && bad_target(instr.target1)) {
        complain(instr_problem(*block, i, ": branch target out of range"));
      }
      const bool bad_slot =
          instr.slot < 0 ||
          static_cast<std::size_t>(instr.slot) >= f.locals.size();
      if ((instr.op == Opcode::kLoadLocal || instr.op == Opcode::kStoreLocal ||
           instr.op == Opcode::kAddrLocal) &&
          bad_slot) {
        complain(instr_problem(*block, i, ": local slot out of range"));
      }
      if (instr.op == Opcode::kAddrLocal && !bad_slot &&
          !f.locals[static_cast<std::size_t>(instr.slot)].is_array) {
        complain("addr.local of a non-array slot (scalars have no address)");
      }
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

std::vector<std::string> verify(const Function& function) {
  std::vector<std::string> problems;
  check_function(function, problems, scratch());
  return problems;
}

std::vector<std::string> verify(const Module& module) {
  Scratch& tables = scratch();
  std::vector<std::string> problems;
  const auto& functions = module.functions;
  for (const auto& f : functions) {
    check_function(*f, problems, tables);
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
