// Tests of the paging substrate: demand mapping, translation, guard pages,
// protection bits, and page-crossing accesses.
#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "faultinject/faultinject.hpp"
#include "paging/page_table.hpp"
#include "paging/physical_memory.hpp"

namespace cash::paging {
namespace {

TEST(PhysicalMemory, FrameAllocationAndAccess) {
  PhysicalMemory memory(16);
  const std::uint32_t f0 = memory.allocate_frame();
  const std::uint32_t f1 = memory.allocate_frame();
  EXPECT_EQ(f0, 0U);
  EXPECT_EQ(f1, 1U);
  memory.write32(f1 * kPageSize + 8, 0xCAFEBABE);
  EXPECT_EQ(memory.read32(f1 * kPageSize + 8), 0xCAFEBABEU);
  EXPECT_EQ(memory.read8(f1 * kPageSize + 8), 0xBE);
}

TEST(PhysicalMemory, ExhaustionThrows) {
  PhysicalMemory memory(2);
  memory.allocate_frame();
  memory.allocate_frame();
  EXPECT_THROW(memory.allocate_frame(), std::runtime_error);
}

// The store is a host mapping that grows by remapping, which may move it.
// Across every growth step from 1 to 4096 frames, each frame keeps what
// was written to it and each new frame reads zero.
TEST(PhysicalMemory, FramesKeepTheirBytesAsTheStoreGrows) {
  constexpr std::uint32_t kFrames = 4096;
  PhysicalMemory memory(kFrames);
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    ASSERT_EQ(memory.allocate_frame(), f);
    const std::uint32_t base = f * kPageSize;
    EXPECT_EQ(memory.read32(base), 0U);
    EXPECT_EQ(memory.read32(base + kPageSize - 4), 0U);
    memory.write32(base, f * 2654435761U);
    memory.write8(base + kPageSize - 1, static_cast<std::uint8_t>(f));
  }
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    const std::uint32_t base = f * kPageSize;
    ASSERT_EQ(memory.read32(base), f * 2654435761U) << "frame " << f;
    ASSERT_EQ(memory.read8(base + kPageSize - 1),
              static_cast<std::uint8_t>(f));
  }
}

TEST(PhysicalMemory, RestoreRewindsFramesAndZeroesLaterOnes) {
  PhysicalMemory memory(64);
  memory.allocate_frame();
  memory.allocate_frame();
  memory.write32(8, 11);
  memory.write32(kPageSize + 8, 22);
  const PhysicalMemory::Image image = memory.capture_image();
  memory.write32(8, 33);
  for (int i = 0; i < 30; ++i) { // grows the store past the capture
    const std::uint32_t f = memory.allocate_frame();
    memory.write32(f * kPageSize + 16, 0xDEADBEEF);
  }
  memory.restore_image(image);
  EXPECT_EQ(memory.frames_allocated(), 2U);
  EXPECT_EQ(memory.read32(8), 11U);
  EXPECT_EQ(memory.read32(kPageSize + 8), 22U);
  for (int i = 0; i < 30; ++i) {
    const std::uint32_t f = memory.allocate_frame();
    EXPECT_EQ(memory.read32(f * kPageSize + 16), 0U) << "frame " << f;
  }
  // A second restore from the same capture works too.
  memory.restore_image(image);
  EXPECT_EQ(memory.frames_allocated(), 2U);
  EXPECT_EQ(memory.read32(8), 11U);
}

TEST(PhysicalMemory, ExhaustionAndInjectedDenialAreResourceFaults) {
  PhysicalMemory full(1);
  full.allocate_frame();
  try {
    full.allocate_frame();
    ADD_FAILURE() << "allocation past the last frame succeeded";
  } catch (const FaultException& e) {
    EXPECT_EQ(e.fault().kind, FaultKind::kResourceExhausted);
  }

  faultinject::FaultPlan plan;
  plan.rules.push_back({faultinject::FaultSite::kPhysFrameAlloc, 1, 1, 1, 1});
  faultinject::FaultInjector injector(plan, 0);
  PhysicalMemory memory(16);
  memory.set_fault_injector(&injector);
  memory.allocate_frame();
  try {
    memory.allocate_frame();
    ADD_FAILURE() << "the injected denial did not fire";
  } catch (const FaultException& e) {
    EXPECT_EQ(e.fault().kind, FaultKind::kResourceExhausted);
    EXPECT_NE(e.fault().detail.find("fault injection"), std::string::npos);
  }
  EXPECT_EQ(memory.frames_allocated(), 1U);
  EXPECT_EQ(memory.allocate_frame(), 1U);
}

#ifndef NDEBUG
// The store is a raw mapping, so builds with assertions check every access
// against the allocated frames themselves.
TEST(PhysicalMemoryDeathTest, AccessPastTheAllocatedFramesAsserts) {
  PhysicalMemory memory(16);
  memory.allocate_frame();
  EXPECT_DEATH((void)memory.read32(kPageSize - 2), "in_allocated");
  EXPECT_DEATH(memory.write32(kPageSize, 1), "in_allocated");
  EXPECT_DEATH((void)memory.read8(kPageSize), "in_allocated");
}
#endif

TEST(PageTable, UnmappedAccessFaults) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  const Result<std::uint32_t> r = pages.translate(0x1000, 4, false, true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().kind, FaultKind::kPageFault);
  EXPECT_EQ(pages.page_fault_count(), 1U);
}

TEST(PageTable, MapAndTranslate) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_range(0x5000, 100);
  const Result<std::uint32_t> r = pages.translate(0x5010, 4, true, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value() & (kPageSize - 1), 0x10U);
  EXPECT_EQ(pages.mapped_pages(), 1U);
}

TEST(PageTable, MapRangeSpansPages) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_range(0x5FF0, 0x20); // crosses the 0x6000 boundary
  EXPECT_EQ(pages.mapped_pages(), 2U);
  EXPECT_TRUE(pages.translate(0x5FF0, 4, false, true).ok());
  EXPECT_TRUE(pages.translate(0x6000, 4, false, true).ok());
}

TEST(PageTable, GuardPageFaultsAndSurvivesMapping) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.set_guard(0x7000 >> kPageShift, true);
  // Demand-mapping over the guard must NOT clear it (the Electric-Fence
  // property the Cash MMU relies on).
  pages.map_range(0x7000, 16);
  const Result<std::uint32_t> r = pages.translate(0x7000, 4, false, true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().kind, FaultKind::kPageFault);
  // Clearing the guard allows mapping again.
  pages.set_guard(0x7000 >> kPageShift, false);
  pages.map_range(0x7000, 16);
  EXPECT_TRUE(pages.translate(0x7000, 4, false, true).ok());
}

TEST(PageTable, ReadOnlyPageRejectsWrites) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_page(3, /*writable=*/false);
  EXPECT_TRUE(pages.translate(3 * kPageSize, 4, false, true).ok());
  EXPECT_FALSE(pages.translate(3 * kPageSize, 4, true, true).ok());
}

TEST(PageTable, SupervisorPageRejectsUserAccess) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_page(4, /*writable=*/true, /*user=*/false);
  EXPECT_FALSE(pages.translate(4 * kPageSize, 4, false, /*user=*/true).ok());
  EXPECT_TRUE(pages.translate(4 * kPageSize, 4, false, /*user=*/false).ok());
}

TEST(PageTable, CrossPageAccessRequiresBothPages) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_page(5);
  // Word at the very end of page 5 spills into unmapped page 6.
  EXPECT_FALSE(
      pages.translate(5 * kPageSize + kPageSize - 2, 4, false, true).ok());
  pages.map_page(6);
  EXPECT_TRUE(
      pages.translate(5 * kPageSize + kPageSize - 2, 4, false, true).ok());
}

TEST(PageTable, DistinctPagesGetDistinctFrames) {
  PhysicalMemory memory(16);
  PageTable pages(memory);
  pages.map_page(10);
  pages.map_page(20);
  const auto a = pages.translate(10 * kPageSize, 4, false, true);
  const auto b = pages.translate(20 * kPageSize, 4, false, true);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value() >> kPageShift, b.value() >> kPageShift);
}

} // namespace
} // namespace cash::paging
