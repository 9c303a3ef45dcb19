#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/costs.hpp"
#include "common/result.hpp"
#include "common/stats_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "x86seg/descriptor_table.hpp"

namespace cash::kernel {

using Pid = std::uint32_t;
using LdtId = std::uint32_t; // per-process LDT handle; 0 is the primary LDT

// Well-known GDT layout of the simulated Linux 2.4 kernel. Entry 0 is the
// architectural null descriptor; the flat user data segment (base 0, 4 GB,
// page-granular) is the "global segment" the paper assigns to unchecked
// objects.
inline constexpr std::uint16_t kGdtNull = 0;
inline constexpr std::uint16_t kGdtKernelCode = 1;
inline constexpr std::uint16_t kGdtKernelData = 2;
inline constexpr std::uint16_t kGdtUserCode = 3;
inline constexpr std::uint16_t kGdtUserData = 4;

x86seg::Selector flat_user_data_selector() noexcept;
x86seg::Selector flat_user_code_selector() noexcept;

// Per-process kernel-side accounting of LDT-related work.
struct KernelAccount {
  std::uint64_t kernel_cycles{0};
  std::uint64_t modify_ldt_calls{0};
  std::uint64_t call_gate_calls{0};
  std::uint64_t ldt_switches{0};
  std::uint64_t ldts_created{0};
  // Round-robin switches that handed the CPU *to* this process (each one
  // charged costs::kContextSwitch into kernel_cycles).
  std::uint64_t context_switches_in{0};

  bool operator==(const KernelAccount&) const = default;
};
#define CASH_KERNEL_ACCOUNT_FIELDS(X, HOST)                               \
  X(kernel_cycles) X(modify_ldt_calls) X(call_gate_calls) X(ldt_switches) \
  X(ldts_created) X(context_switches_in)
CASH_STATS_SCHEMA(KernelAccount, CASH_KERNEL_ACCOUNT_FIELDS)

// Round-robin scheduler configuration (DESIGN.md §10). The quantum is the
// cycle budget a process may burn before the timer interrupt forces a
// switch; sched_charge() consumes it.
struct SchedulerConfig {
  std::uint64_t quantum_cycles{50000};
};

// Kernel-wide scheduling aggregates.
struct SchedulerStats {
  std::uint64_t context_switches{0};
  std::uint64_t context_switch_cycles{0};
  std::uint64_t quanta_expired{0};
  std::uint64_t yields{0};

  bool operator==(const SchedulerStats&) const = default;
};

// Simulated kernel: owns the shared GDT and each process's LDTs (which live
// in "kernel space" — user code can only change them through the entry
// points below, mirroring Section 3.6). A process starts with one LDT;
// the Section 3.4 multi-LDT extension adds more, with the LDTR switched via
// a system call.
class KernelSim {
 public:
  KernelSim();

  Pid create_process();
  void destroy_process(Pid pid);

  x86seg::DescriptorTable& gdt() noexcept { return gdt_; }

  // The process's *active* LDT (the one the LDTR points to).
  x86seg::DescriptorTable& ldt(Pid pid);
  // A specific LDT of the process.
  x86seg::DescriptorTable& ldt(Pid pid, LdtId ldt_id);
  LdtId active_ldt(Pid pid);
  std::size_t ldt_count(Pid pid);

  const KernelAccount& account(Pid pid) const;

  // Stock Linux modify_ldt(2): full syscall path, 781 cycles. Installs any
  // DPL-3 code/data descriptor into the active LDT.
  Status modify_ldt(Pid pid, std::uint16_t index,
                    const x86seg::SegmentDescriptor& descriptor);

  // Cash's one-time set_ldt_callgate(void): installs a call gate to
  // cash_modify_ldt() in primary-LDT entry 0. Charged as part of the
  // per-program set-up cost (543 cycles total, Section 4.1).
  Status set_ldt_callgate(Pid pid);

  // The slim call-gate path: 253 cycles. Refuses to install call gates or
  // privileged segments (Section 3.8's security guarantee), and never
  // touches primary entry 0 (the gate itself).
  Status cash_modify_ldt(Pid pid, std::uint16_t index,
                         const x86seg::SegmentDescriptor& descriptor);
  // Multi-LDT variant targeting a specific LDT of the process.
  Status cash_modify_ldt(Pid pid, LdtId ldt_id, std::uint16_t index,
                         const x86seg::SegmentDescriptor& descriptor);

  // Resolves a selector exactly as a segment-register load in `pid` would:
  // non-local selectors go through the shared GDT; local selectors through
  // the process's *active* LDT. Faults with #GP when the LDT entry holds no
  // live descriptor — this is the isolation guarantee that makes segment
  // handles process-private: a selector allocated in process A names
  // nothing in process B.
  Result<x86seg::SegmentDescriptor> resolve_selector(Pid pid,
                                                     x86seg::Selector selector);

  // --- Round-robin scheduler (multi-tenant serving, DESIGN.md §10) ---
  //
  // The driver loop asks sched_current() which process owns the CPU,
  // performs that process's next operation, then reports its cycle cost via
  // sched_charge(). Expired quanta rotate the run queue; every switch
  // charges costs::kContextSwitch to the incoming process. A process that
  // finishes its work sched_yield()s (or detaches). Processes not attached
  // to the run queue are unaffected — a KernelSim with an empty run queue
  // behaves exactly as before this layer existed.

  void sched_configure(const SchedulerConfig& config);
  const SchedulerConfig& sched_config() const noexcept { return sched_config_; }

  // Appends the process to the run queue (no-op if already attached). The
  // first attached process becomes current.
  void sched_attach(Pid pid);
  // Removes the process (no-op if absent; destroy_process detaches). A
  // current process that detaches hands the CPU over without a charged
  // switch — process exit frees the CPU.
  void sched_detach(Pid pid);
  bool sched_attached(Pid pid) const noexcept;
  std::size_t sched_runnable() const noexcept { return run_queue_.size(); }

  // The process owning the CPU. Throws if the run queue is empty.
  Pid sched_current() const;

  // Charges `cycles` of user work against the current quantum. Returns the
  // context-switch cycles incurred (0 when the quantum survives or only one
  // process is runnable — quanta still expire, but rotating to yourself is
  // free).
  std::uint64_t sched_charge(std::uint64_t cycles);

  // Voluntary yield: resets the quantum and rotates (charging one switch)
  // when another process is runnable. Returns the cycles charged.
  std::uint64_t sched_yield();

  const SchedulerStats& sched_stats() const noexcept { return sched_stats_; }
  std::uint64_t sched_quantum_used() const noexcept { return quantum_used_; }

  // --- Shared LDT slot budget (multi-tenant pressure) ---
  //
  // Kernel-wide cap on *installed* descriptor entries across every
  // process's LDTs (0 = unlimited). Well-defined because releasing a
  // segment never enters the kernel: entries only ever become installed.
  // Once the budget is exhausted, installing into a previously-empty entry
  // returns a structured kResourceExhausted fault — after the gate has been
  // charged, as in the real kernel — and user space degrades to the
  // unchecked global segment (SegmentManager's budget-fallback path). The
  // kLdtCrossTenant fault site simulates the same condition on demand.
  void set_ldt_slot_budget(std::uint64_t slots) noexcept {
    ldt_slot_budget_ = slots;
  }
  std::uint64_t ldt_slot_budget() const noexcept { return ldt_slot_budget_; }
  std::uint64_t ldt_slots_installed() const noexcept {
    return ldt_slots_installed_;
  }

  // --- Section 3.4 multi-LDT extension ---

  // Allocates an additional LDT for the process (781-cycle syscall).
  // Returns its id.
  Result<std::uint32_t> create_extra_ldt(Pid pid);

  // Repoints the LDTR (282-cycle slim syscall: LLDT is privileged).
  Status switch_ldt(Pid pid, LdtId ldt_id);

  // Optional deterministic fault injection (owned by the machine). The
  // kCallGateBusy site is consulted at the top of cash_modify_ldt(): a fire
  // bounces the lcall (FaultKind::kGateBusy) before any kernel cycles are
  // charged, modelling gate contention. User space retries with backoff
  // (see costs::kGateBusyBackoffBase).
  void set_fault_injector(faultinject::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  // --- snapshot support (vm/snapshot.hpp) ---

  // Kernel-side state of one process at capture time. The LDT *contents*
  // are journaled inside the DescriptorTables themselves; this records the
  // scalars plus how many LDTs existed (extra LDTs created after the
  // capture are destroyed on restore).
  // Scheduler and budget state ride along so a capture taken mid-quantum
  // restores exactly (correct for the one-machine-per-kernel case netsim
  // and the snapshot tests exercise; a multi-process capture would need one
  // snapshot per process).
  struct ProcessSnapshot {
    LdtId active{0};
    bool callgate_installed{false};
    KernelAccount account;
    std::size_t ldt_count{0};
    std::uint64_t slots_installed{0}; // this process's share of the budget
    bool attached{false};             // was on the run queue at capture
    std::uint64_t quantum_used{0};    // kernel-wide quantum progress
    SchedulerStats sched_stats;       // kernel-wide scheduling aggregates
  };

  // Snapshots the process and arms journals on the GDT and all its LDTs.
  ProcessSnapshot capture_process(Pid pid);

  // Rewinds the process to `snap` (its most recent capture): reverts the
  // GDT/LDT journals, drops LDTs created since, restores the scalars.
  void restore_process(Pid pid, const ProcessSnapshot& snap);

 private:
  struct Process {
    std::vector<std::unique_ptr<x86seg::DescriptorTable>> ldts;
    LdtId active{0};
    bool callgate_installed{false};
    KernelAccount account;
    std::uint64_t slots_installed{0};
  };

  Process& process(Pid pid);
  const Process& process(Pid pid) const;
  static Status validate_user_descriptor(
      const x86seg::SegmentDescriptor& descriptor, std::uint16_t index);

  // Rotates the run queue one step, charging costs::kContextSwitch to the
  // incoming process. Returns the cycles charged.
  std::uint64_t context_switch_to_next();

  x86seg::DescriptorTable gdt_{x86seg::DescriptorTable::Kind::kGlobal};
  std::map<Pid, std::unique_ptr<Process>> processes_;
  Pid next_pid_{1};
  faultinject::FaultInjector* injector_{nullptr};

  SchedulerConfig sched_config_;
  SchedulerStats sched_stats_;
  std::vector<Pid> run_queue_; // attach order; current_ indexes into it
  std::size_t current_{0};
  std::uint64_t quantum_used_{0};

  std::uint64_t ldt_slot_budget_{0}; // 0 = unlimited
  std::uint64_t ldt_slots_installed_{0};
};

} // namespace cash::kernel
