// Tests of the software TLB's correctness contract: stale entries must
// never be served after a PageTable mutation (set_guard, unmap, map_page),
// permission-mismatch hits must re-walk to the architectural fault, and the
// segment-register fast path must keep hidden-part (descriptor cache)
// semantics — a descriptor-table rewrite stays invisible until reload.
#include <gtest/gtest.h>

#include "core/cash.hpp"
#include "kernel/kernel_sim.hpp"
#include "mmu/mmu.hpp"

namespace cash::mmu {
namespace {

using paging::kPageShift;
using paging::kPageSize;
using x86seg::SegmentDescriptor;
using x86seg::SegReg;
using x86seg::Selector;

class TlbTest : public testing::Test {
 protected:
  TlbTest()
      : pid_(kernel_.create_process()),
        phys_(256),
        pages_(phys_),
        unit_(kernel_.gdt(), kernel_.ldt(pid_)),
        mmu_(unit_, pages_, phys_) {
    EXPECT_TRUE(
        unit_.load(SegReg::kDs, kernel::flat_user_data_selector()).ok());
  }

  kernel::KernelSim kernel_;
  kernel::Pid pid_;
  paging::PhysicalMemory phys_;
  paging::PageTable pages_;
  x86seg::SegmentationUnit unit_;
  Mmu mmu_;
};

TEST_F(TlbTest, RepeatedAccessHitsTlb) {
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0x5000, 0xABCD).ok());
  const std::uint64_t hits_before = pages_.tlb().stats().hits;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(mmu_.read32(SegReg::kDs, 0x5000).value(), 0xABCDU);
  }
  EXPECT_GE(pages_.tlb().stats().hits, hits_before + 10);
}

TEST_F(TlbTest, GuardSetAfterCachingStillFaults) {
  // Cache the page via a normal access, then turn it into an Electric-Fence
  // guard page. The next access must take the full walk and #PF — a stale
  // TLB entry here would silently swallow the overflow detection.
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0x8000, 1).ok());
  ASSERT_TRUE(mmu_.read32(SegReg::kDs, 0x8000).ok());
  const std::uint64_t inv_before = pages_.tlb().stats().invalidations;
  pages_.set_guard(0x8000 >> kPageShift, true);
  EXPECT_EQ(pages_.tlb().stats().invalidations, inv_before + 1);
  const Result<std::uint32_t> r = mmu_.read32(SegReg::kDs, 0x8000);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().kind, FaultKind::kPageFault);
  EXPECT_NE(r.fault().detail.find("guard-page"), std::string::npos);
}

TEST_F(TlbTest, UnmapInvalidatesCachedTranslation) {
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0x9000, 0xFEEDFACE).ok());
  ASSERT_EQ(mmu_.read32(SegReg::kDs, 0x9000).value(), 0xFEEDFACEU);
  pages_.unmap(0x9000 >> kPageShift);
  // Without the MMU's demand mapping, the walk itself must fault — a stale
  // TLB entry would still have returned the old frame.
  EXPECT_FALSE(pages_.translate(0x9000, 4, false, true).ok());
  // Through the MMU, demand paging maps a *fresh zeroed* frame: the old
  // value must not resurface via the TLB.
  EXPECT_EQ(mmu_.read32(SegReg::kDs, 0x9000).value(), 0U);
}

TEST_F(TlbTest, WriteThroughCachedReadOnlyEntryFaults) {
  const std::uint32_t page = 0x50;
  pages_.map_page(page, /*writable=*/false);
  ASSERT_TRUE(mmu_.read32(SegReg::kDs, page * kPageSize).ok()); // caches
  const Status s = mmu_.write32(SegReg::kDs, page * kPageSize, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.fault().kind, FaultKind::kPageFault);
  EXPECT_NE(s.fault().detail.find("read-only"), std::string::npos);
}

TEST_F(TlbTest, SupervisorEntryCachedByKernelAccessRejectsUserAccess) {
  const std::uint32_t page = 0x60;
  pages_.map_page(page, /*writable=*/true, /*user=*/false);
  // Kernel-mode linear access succeeds and fills the TLB with user=0.
  ASSERT_TRUE(mmu_.read32_linear(page * kPageSize).ok());
  // The user-mode probe must treat that entry as a miss and re-walk to the
  // architectural fault.
  const Result<std::uint32_t> r = mmu_.read32(SegReg::kDs, page * kPageSize);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().kind, FaultKind::kPageFault);
  EXPECT_NE(r.fault().detail.find("supervisor"), std::string::npos);
}

TEST_F(TlbTest, LdtRewriteInvisibleUntilSegmentReload) {
  // The segment fast-path word is derived at load() time, with exactly the
  // lifetime of the hidden part: a cash_modify_ldt() rewrite must stay
  // invisible until the register is reloaded, then take effect.
  ASSERT_TRUE(kernel_.set_ldt_callgate(pid_).ok());
  ASSERT_TRUE(kernel_
                  .cash_modify_ldt(pid_, 2,
                                   SegmentDescriptor::byte_granular_data(
                                       0x20000, 101))
                  .ok());
  const Selector sel = Selector::make(2, true, 3);
  ASSERT_TRUE(unit_.load(SegReg::kGs, sel).ok());
  ASSERT_TRUE(mmu_.write32(SegReg::kGs, 80, 7).ok());

  // Shrink the segment to 51 bytes behind the loaded register's back.
  ASSERT_TRUE(kernel_
                  .cash_modify_ldt(pid_, 2,
                                   SegmentDescriptor::byte_granular_data(
                                       0x20000, 51))
                  .ok());
  // Stale hidden part: offset 80 still passes.
  EXPECT_TRUE(mmu_.read32(SegReg::kGs, 80).ok());
  // Reload makes the rewrite architectural: offset 80 now #GPs, 40 passes.
  ASSERT_TRUE(unit_.load(SegReg::kGs, sel).ok());
  const Result<std::uint32_t> r = mmu_.read32(SegReg::kGs, 80);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().kind, FaultKind::kGeneralProtection);
  EXPECT_TRUE(mmu_.read32(SegReg::kGs, 40).ok());
}

TEST_F(TlbTest, DisabledTlbIsCorrectAndCountsNothing) {
  pages_.tlb().set_enabled(false);
  const paging::TlbStats before = pages_.tlb().stats();
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0x7000, 0x1234).ok());
  ASSERT_EQ(mmu_.read32(SegReg::kDs, 0x7000).value(), 0x1234U);
  EXPECT_EQ(pages_.tlb().stats().hits, before.hits);
  EXPECT_EQ(pages_.tlb().stats().misses, before.misses);
}

TEST_F(TlbTest, FlushDropsAllEntriesAndCounts) {
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0xA000, 1).ok());
  const paging::TlbStats before = pages_.tlb().stats();
  pages_.tlb().flush();
  EXPECT_EQ(pages_.tlb().stats().flushes, before.flushes + 1);
  // Next access misses (refill), then hits again.
  ASSERT_TRUE(mmu_.read32(SegReg::kDs, 0xA000).ok());
  EXPECT_EQ(pages_.tlb().stats().misses, before.misses + 1);
}

TEST_F(TlbTest, WordAccessesCountEachProbeOnce) {
  const paging::TlbStats before = pages_.tlb().stats();
  ASSERT_TRUE(mmu_.write32(SegReg::kDs, 0x5000, 1).ok()); // miss, refill
  ASSERT_TRUE(mmu_.read32(SegReg::kDs, 0x5000).ok());     // hit
  ASSERT_TRUE(mmu_.read32_linear(0x5004).ok());           // hit
  ASSERT_TRUE(mmu_.write32_linear(0x9000, 2).ok());       // miss, refill
  // A word straddling two pages is composed byte by byte by page walks,
  // with no probe at all.
  ASSERT_TRUE(mmu_.read32(SegReg::kDs, 0x5FFE).ok());
  EXPECT_EQ(pages_.tlb().stats().hits - before.hits, 2U);
  EXPECT_EQ(pages_.tlb().stats().misses - before.misses, 2U);
}

// One fixed program's TLB hit and miss counts, pinned per check mode and
// engine to the values recorded when every word access still ran out of
// line. The global array's pages and the heap block's share TLB sets, so
// the loops take conflict misses as well as hits. A hit path that counts a
// miss twice, or drops a hit, moves these numbers.
TEST(TlbCounts, FixedProgramHitsAndMissesArePinned) {
  constexpr const char* kProgram = R"(
int g[2048];
int main() {
  int *h; int i; int s;
  h = malloc(8192);
  s = 0;
  for (i = 0; i < 2048; i++) { g[i] = i; h[i] = g[i] * 2; }
  for (i = 0; i < 2048; i = i + 7) { s = s + h[i] + g[2047 - i]; }
  print_int(s);
  return 0;
}
)";
  struct Pinned {
    passes::CheckMode mode;
    bool predecode;
    std::uint64_t hits;
    std::uint64_t misses;
  };
  const Pinned cells[] = {
      {passes::CheckMode::kCash, true, 2632, 4108},
      {passes::CheckMode::kCash, false, 2632, 4108},
      {passes::CheckMode::kBcc, true, 13454, 6742},
      {passes::CheckMode::kBcc, false, 13454, 6742},
  };
  for (const Pinned& cell : cells) {
    CompileOptions options;
    options.lower.mode = cell.mode;
    options.machine.enable_predecode = cell.predecode;
    CompileResult compiled = compile(kProgram, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const vm::RunResult r = compiled.program->make_machine()->run();
    ASSERT_TRUE(r.ok) << (r.fault ? r.fault->detail : r.error);
    const std::string ctx = std::string(to_string(cell.mode)) +
                            (cell.predecode ? " decoded" : " interpreter");
    EXPECT_EQ(r.tlb_stats.hits, cell.hits) << ctx;
    EXPECT_EQ(r.tlb_stats.misses, cell.misses) << ctx;
  }
}

} // namespace
} // namespace cash::mmu
