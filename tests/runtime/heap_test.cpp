// Heap tests: info-structure layout (the paper's "112 bytes for a 100-byte
// array"), per-mode behaviour of cash_malloc/cash_free, the N>1 rule, and
// Electric-Fence guard-page placement.
#include <gtest/gtest.h>

#include "core/cash.hpp"
#include "kernel/kernel_sim.hpp"
#include "mmu/mmu.hpp"
#include "runtime/heap.hpp"

namespace cash::runtime {
namespace {

class HeapTest : public testing::TestWithParam<passes::CheckMode> {
 protected:
  HeapTest()
      : pid_(kernel_.create_process()),
        phys_(4096),
        pages_(phys_),
        unit_(kernel_.gdt(), kernel_.ldt(pid_)),
        mmu_(unit_, pages_, phys_),
        segments_(kernel_, pid_),
        arrays_(mmu_, segments_, GetParam()),
        heap_(mmu_, arrays_, 0x10000000, 0x20000000) {
    if (GetParam() == passes::CheckMode::kCash) {
      (void)segments_.initialize();
    }
  }

  kernel::KernelSim kernel_;
  kernel::Pid pid_;
  paging::PhysicalMemory phys_;
  paging::PageTable pages_;
  x86seg::SegmentationUnit unit_;
  mmu::Mmu mmu_;
  SegmentManager segments_;
  ArrayRuntime arrays_;
  CashHeap heap_;
};

TEST_P(HeapTest, AllocationReturnsWordAlignedData) {
  const auto obj = heap_.allocate(100);
  ASSERT_NE(obj.data, 0U);
  EXPECT_EQ(obj.data % 4, 0U);
  EXPECT_EQ(heap_.stats().malloc_calls, 1U);
}

TEST_P(HeapTest, ObjectsDontOverlap) {
  const auto a = heap_.allocate(64);
  const auto b = heap_.allocate(64);
  EXPECT_GE(b.data, a.data + 64);
}

TEST_P(HeapTest, SizeThatWrapsIsOutOfMemory) {
  // malloc(-4) asks for 0xFFFFFFFC bytes. The fit check must not wrap in
  // 32 bits and hand out a block that moves the heap cursor backwards, or
  // the next malloc(16) lands inside it.
  const auto huge = heap_.allocate(0xFFFFFFFCU);
  EXPECT_EQ(huge.data, 0U);
  const auto next = heap_.allocate(16);
  CashHeap fresh(mmu_, arrays_, 0x10000000, 0x20000000);
  EXPECT_EQ(next.data, fresh.allocate(16).data);
  const auto after = heap_.allocate(16);
  EXPECT_GE(after.data, next.data + 16);
}

INSTANTIATE_TEST_SUITE_P(AllModes, HeapTest,
                         testing::Values(passes::CheckMode::kNoCheck,
                                         passes::CheckMode::kBcc,
                                         passes::CheckMode::kCash,
                                         passes::CheckMode::kEfence),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class CashHeapTest : public testing::Test {
 protected:
  CashHeapTest()
      : pid_(kernel_.create_process()),
        phys_(4096),
        pages_(phys_),
        unit_(kernel_.gdt(), kernel_.ldt(pid_)),
        mmu_(unit_, pages_, phys_),
        segments_(kernel_, pid_),
        arrays_(mmu_, segments_, passes::CheckMode::kCash),
        heap_(mmu_, arrays_, 0x10000000, 0x20000000) {
    (void)segments_.initialize();
  }

  kernel::KernelSim kernel_;
  kernel::Pid pid_;
  paging::PhysicalMemory phys_;
  paging::PageTable pages_;
  x86seg::SegmentationUnit unit_;
  mmu::Mmu mmu_;
  SegmentManager segments_;
  ArrayRuntime arrays_;
  CashHeap heap_;
};

TEST_F(CashHeapTest, InfoStructurePrecedesDataAndIsFilled) {
  const auto obj = heap_.allocate(100);
  ASSERT_NE(obj.info, 0U);
  EXPECT_EQ(obj.data - obj.info, kInfoBytes); // 3 words, paper Section 3.2
  EXPECT_EQ(mmu_.read32_linear(obj.info + kInfoLowerOff).value(), obj.data);
  EXPECT_EQ(mmu_.read32_linear(obj.info + kInfoUpperOff).value(),
            obj.data + 100);
  const std::uint32_t selector_raw =
      mmu_.read32_linear(obj.info + kInfoSelectorOff).value();
  ASSERT_NE(selector_raw, 0U);
  // The installed segment covers exactly the object.
  const x86seg::Selector sel(static_cast<std::uint16_t>(selector_raw));
  auto descriptor = kernel_.ldt(pid_).lookup(sel);
  ASSERT_TRUE(descriptor.ok());
  EXPECT_EQ(descriptor.value().base(), obj.data);
  EXPECT_EQ(descriptor.value().span(), 100U);
}

TEST_F(CashHeapTest, SingleWordMallocGetsNoSegment) {
  // malloc(4) is not array-like (N == 1): no info structure, no segment —
  // the Section 1 rule.
  const auto obj = heap_.allocate(4);
  EXPECT_EQ(obj.info, 0U);
  EXPECT_EQ(segments_.stats().alloc_requests, 0U);
}

TEST_F(CashHeapTest, FreeReturnsSegmentToCache) {
  const auto obj = heap_.allocate(256);
  EXPECT_EQ(segments_.stats().segments_in_use, 1U);
  (void)heap_.release(obj.data);
  EXPECT_EQ(segments_.stats().segments_in_use, 0U);
  EXPECT_EQ(heap_.stats().free_calls, 1U);
  // Same-size reallocation reuses the cached segment.
  const auto again = heap_.allocate(256);
  EXPECT_EQ(segments_.stats().cache_hits, 1U);
  (void)again;
}

TEST_F(CashHeapTest, HeapExhaustionReturnsNull) {
  CashHeap tiny(mmu_, arrays_, 0x30000000, 0x30000100);
  const auto obj = tiny.allocate(1024);
  EXPECT_EQ(obj.data, 0U);
}

class EfenceHeapTest : public testing::Test {
 protected:
  EfenceHeapTest()
      : pid_(kernel_.create_process()),
        phys_(4096),
        pages_(phys_),
        unit_(kernel_.gdt(), kernel_.ldt(pid_)),
        mmu_(unit_, pages_, phys_),
        segments_(kernel_, pid_),
        arrays_(mmu_, segments_, passes::CheckMode::kEfence),
        heap_(mmu_, arrays_, 0x10000000, 0x20000000) {}

  kernel::KernelSim kernel_;
  kernel::Pid pid_;
  paging::PhysicalMemory phys_;
  paging::PageTable pages_;
  x86seg::SegmentationUnit unit_;
  mmu::Mmu mmu_;
  SegmentManager segments_;
  ArrayRuntime arrays_;
  CashHeap heap_;
};

TEST_F(EfenceHeapTest, ObjectEndsAtPageBoundaryWithGuardAfter) {
  const auto obj = heap_.allocate(100);
  ASSERT_NE(obj.data, 0U);
  // In-bounds access works.
  EXPECT_TRUE(mmu_.write32_linear(obj.data, 1).ok());
  EXPECT_TRUE(mmu_.write32_linear(obj.data + 96, 1).ok());
  // One word past the end lands on the guard page.
  const Status past = mmu_.write32_linear(obj.data + 100, 1);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.fault().kind, FaultKind::kPageFault);
  EXPECT_EQ(heap_.stats().guard_pages, 1U);
}

TEST_F(EfenceHeapTest, ConsecutiveAllocationsDontShareGuards) {
  const auto a = heap_.allocate(64);
  const auto b = heap_.allocate(64);
  EXPECT_TRUE(mmu_.write32_linear(a.data + 60, 1).ok());
  EXPECT_TRUE(mmu_.write32_linear(b.data + 60, 1).ok());
  EXPECT_FALSE(mmu_.write32_linear(a.data + 64, 1).ok());
  EXPECT_FALSE(mmu_.write32_linear(b.data + 64, 1).ok());
  EXPECT_EQ(heap_.stats().guard_pages, 2U);
}

// The same request from a program ends the run in the heap-exhausted
// fault, in both engines.
TEST(HeapProgram, MallocOfAWrappingSizeIsHeapExhausted) {
  constexpr const char* kProgram = R"(
int main() {
  int *p; int *q;
  p = malloc(-4);
  q = malloc(16);
  q[0] = 7;
  return p[2];
}
)";
  for (passes::CheckMode mode :
       {passes::CheckMode::kCash, passes::CheckMode::kEfence}) {
    for (bool predecode : {true, false}) {
      CompileOptions options;
      options.lower.mode = mode;
      options.machine.enable_predecode = predecode;
      CompileResult compiled = compile(kProgram, options);
      ASSERT_TRUE(compiled.ok()) << compiled.error;
      const vm::RunResult r = compiled.program->make_machine()->run();
      const std::string ctx = std::string(to_string(mode)) +
                              (predecode ? " decoded" : " interpreter");
      ASSERT_TRUE(r.fault.has_value()) << ctx;
      EXPECT_EQ(r.fault->kind, FaultKind::kResourceExhausted) << ctx;
      EXPECT_NE(r.fault->detail.find("malloc(4294967292)"), std::string::npos)
          << ctx << ": " << r.fault->detail;
    }
  }
}

} // namespace
} // namespace cash::runtime
