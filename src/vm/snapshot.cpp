#include "vm/snapshot.hpp"

#include "vm/machine_impl.hpp"

namespace cash::vm {

// Everything a restore needs. The big, mostly-clean state (physical
// frames) is captured as an image with dirty tracking; the page table and
// descriptor tables rewind via in-place undo journals; the small runtime
// objects (segment manager, heap, fault injector, segment registers) and
// the interpreter's own state are cheap enough to copy wholesale. The
// non-phys members hold non-owning pointers into their machine (kernel,
// MMU, injector) — copy-assigning them back into the same machine at
// restore time leaves those pointers pointing where they should.
struct MachineSnapshot::Data {
  explicit Data(Machine::Impl& impl)
      : phys(impl.phys.capture_image()),
        proc(impl.kernel.capture_process(impl.pid)),
        segments(impl.segments),
        heap(impl.heap),
        injector(impl.injector),
        seg_unit(impl.seg_unit),
        mmu_access(impl.mmu.access_count()),
        program_initialized(impl.program_initialized),
        init_cycles(impl.init_cycles),
        flat_global_data(impl.flat_global_data),
        flat_global_info(impl.flat_global_info),
        flat_global_scalar(impl.flat_global_scalar),
        mem_ptr_info(impl.mem_ptr_info),
        sp(impl.sp),
        rng_state(impl.rng_state),
        trace_stats(impl.trace_stats) {}

  paging::PhysicalMemory::Image phys;
  kernel::KernelSim::ProcessSnapshot proc;
  runtime::SegmentManager segments;
  runtime::CashHeap heap;
  faultinject::FaultInjector injector;
  x86seg::SegmentationUnit seg_unit;
  std::uint64_t mmu_access;
  bool program_initialized;
  std::uint64_t init_cycles;
  std::vector<std::uint32_t> flat_global_data;
  std::vector<std::uint32_t> flat_global_info;
  std::vector<std::uint32_t> flat_global_scalar;
  std::unordered_map<std::uint32_t, std::uint32_t> mem_ptr_info;
  std::uint32_t sp;
  std::uint32_t rng_state;
  // Hot-trace statistics only (DESIGN.md §11). The trace cache itself —
  // heat counters, bias edges, formed superblocks — is not captured: it
  // lives as long as the machine, so requests served after a restore run
  // the traces earlier requests formed. Traces are transparent, so that
  // cannot change a simulated result; rewinding the statistics keeps
  // RunResult::trace_stats a description of the restored run.
  TraceStats trace_stats;
};

MachineSnapshot::MachineSnapshot(std::unique_ptr<Data> data)
    : data_(std::move(data)) {}

MachineSnapshot::~MachineSnapshot() = default;

std::unique_ptr<MachineSnapshot> Machine::capture() {
  Impl& impl = *impl_;
  // The Data constructor captures the frame image and arms the
  // GDT/LDT journals (kernel.capture_process); the page table arms here.
  auto data = std::make_unique<MachineSnapshot::Data>(impl);
  impl.pages.begin_journal();
  return std::unique_ptr<MachineSnapshot>(
      new MachineSnapshot(std::move(data)));
}

void Machine::restore(const MachineSnapshot& snap) {
  Impl& impl = *impl_;
  const MachineSnapshot::Data& d = *snap.data_;
  impl.phys.restore_image(d.phys);
  impl.pages.revert_journal();
  impl.kernel.restore_process(impl.pid, d.proc);
  impl.segments = d.segments;
  impl.heap = d.heap;
  impl.injector = d.injector;
  impl.seg_unit = d.seg_unit;
  // The copied unit's LDT pointer is whatever it was at capture; re-point
  // it at the process's (just-restored) active LDT — extra LDTs created
  // after the capture were dropped by restore_process.
  impl.seg_unit.set_ldt(impl.kernel.ldt(impl.pid));
  impl.mmu.set_access_count(d.mmu_access);
  impl.program_initialized = d.program_initialized;
  impl.init_cycles = d.init_cycles;
  impl.flat_global_data = d.flat_global_data;
  impl.flat_global_info = d.flat_global_info;
  impl.flat_global_scalar = d.flat_global_scalar;
  impl.mem_ptr_info = d.mem_ptr_info;
  impl.sp = d.sp;
  impl.rng_state = d.rng_state;
  impl.trace_stats = d.trace_stats;
}

} // namespace cash::vm
