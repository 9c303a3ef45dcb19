#pragma once

#include <memory>

// Machine snapshot/restore (DESIGN.md §7). Machine::capture() records the
// complete simulated-machine state — physical frames, page tables,
// descriptor tables, kernel accounting, runtime allocators, interpreter
// globals — and arms incremental tracking (dirty frames, PTE/descriptor
// journals) so Machine::restore() rewinds by copying back only what changed
// since. netsim uses this to serve every request from the post-server_init
// image instead of rebuilding a Machine and replaying server_init per
// request.
//
// Contract: a snapshot is valid only for the machine that captured it, and
// only until that machine's next capture() (each capture re-arms the dirty
// baselines). Restores are repeatable: capture → run → restore → run →
// restore ... rewinds bit-exactly every time. Two host-side layers are
// exempt: TLB statistics keep accumulating (like RunResult::tlb_stats), and
// the hot-trace cache keeps the superblocks it formed, so a restored
// machine runs them at once instead of forming them again. Only the trace
// statistics rewind.

namespace cash::vm {

class Machine;

// Opaque machine image returned by Machine::capture().
class MachineSnapshot {
 public:
  ~MachineSnapshot();

  MachineSnapshot(const MachineSnapshot&) = delete;
  MachineSnapshot& operator=(const MachineSnapshot&) = delete;

 private:
  friend class Machine;
  struct Data; // internal (snapshot.cpp)
  explicit MachineSnapshot(std::unique_ptr<Data> data);
  std::unique_ptr<Data> data_;
};

} // namespace cash::vm
