#include "prof/quad.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hybridic::prof {
namespace {

TEST(QuadProfiler, DeclareAssignsSequentialIds) {
  QuadProfiler q;
  EXPECT_EQ(q.declare("a"), 0U);
  EXPECT_EQ(q.declare("b"), 1U);
  EXPECT_EQ(q.graph().function_count(), 2U);
}

TEST(QuadProfiler, ProducerConsumerAttribution) {
  QuadProfiler q;
  const FunctionId producer = q.declare("producer");
  const FunctionId consumer = q.declare("consumer");
  const std::uint64_t addr = q.allocate(64);

  q.enter(producer);
  q.record_write(addr, 64);
  q.leave();

  q.enter(consumer);
  q.record_read(addr, 64);
  q.leave();

  const CommGraph& graph = q.graph();
  EXPECT_EQ(graph.bytes_between(producer, consumer).count(), 64U);
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 1U);
  EXPECT_EQ(edges[0].unique_addresses, 64U);
}

TEST(QuadProfiler, RepeatedReadsCountBytesOnceForUma) {
  QuadProfiler q;
  const FunctionId p = q.declare("p");
  const FunctionId c = q.declare("c");
  const std::uint64_t addr = q.allocate(16);
  q.enter(p);
  q.record_write(addr, 16);
  q.leave();
  q.enter(c);
  q.record_read(addr, 16);
  q.record_read(addr, 16);
  q.record_read(addr, 8);
  q.leave();
  const auto edges = q.graph().edges();
  ASSERT_EQ(edges.size(), 1U);
  EXPECT_EQ(edges[0].bytes.count(), 40U);          // every access counted
  EXPECT_EQ(edges[0].unique_addresses, 16U);       // but 16 unique bytes
}

TEST(QuadProfiler, ReadOfUnwrittenMemoryCreatesNoEdge) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  const std::uint64_t addr = q.allocate(32);
  q.enter(f);
  q.record_read(addr, 32);
  q.leave();
  EXPECT_TRUE(q.graph().edges().empty());
  EXPECT_EQ(q.graph().function(f).reads, 32U);
}

TEST(QuadProfiler, SelfCommunicationRecorded) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  const std::uint64_t addr = q.allocate(8);
  q.enter(f);
  q.record_write(addr, 8);
  q.record_read(addr, 8);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(f, f).count(), 8U);
}

TEST(QuadProfiler, PartialOverwriteSplitsAttribution) {
  QuadProfiler q;
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const FunctionId c = q.declare("c");
  const std::uint64_t addr = q.allocate(16);
  q.enter(a);
  q.record_write(addr, 16);
  q.leave();
  q.enter(b);
  q.record_write(addr + 8, 8);
  q.leave();
  q.enter(c);
  q.record_read(addr, 16);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(a, c).count(), 8U);
  EXPECT_EQ(q.graph().bytes_between(b, c).count(), 8U);
}

TEST(QuadProfiler, NestedScopesAttributeToInnermost) {
  QuadProfiler q;
  const FunctionId outer = q.declare("outer");
  const FunctionId inner = q.declare("inner");
  const FunctionId reader = q.declare("reader");
  const std::uint64_t addr = q.allocate(4);
  q.enter(outer);
  q.enter(inner);
  q.record_write(addr, 4);
  q.leave();
  EXPECT_EQ(q.current(), outer);
  q.leave();
  q.enter(reader);
  q.record_read(addr, 4);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(inner, reader).count(), 4U);
  EXPECT_EQ(q.graph().bytes_between(outer, reader).count(), 0U);
}

TEST(QuadProfiler, CallCountsTracked) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  for (int i = 0; i < 3; ++i) {
    q.enter(f);
    q.leave();
  }
  EXPECT_EQ(q.graph().function(f).calls, 3U);
}

TEST(QuadProfiler, WorkUnitsAccumulate) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  q.enter(f);
  q.add_work(10);
  q.add_work(5);
  q.leave();
  EXPECT_EQ(q.graph().function(f).work_units, 15U);
}

TEST(QuadProfiler, AccessOutsideScopeThrows) {
  QuadProfiler q;
  (void)q.declare("f");
  EXPECT_THROW(q.record_write(0x1000, 4), ConfigError);
  EXPECT_THROW(q.record_read(0x1000, 4), ConfigError);
  EXPECT_THROW(q.add_work(1), ConfigError);
  EXPECT_THROW(q.leave(), ConfigError);
  EXPECT_THROW((void)q.current(), ConfigError);
}

TEST(QuadProfiler, EnterUndeclaredThrows) {
  QuadProfiler q;
  EXPECT_THROW(q.enter(4), ConfigError);
}

TEST(QuadProfiler, AllocationsDoNotOverlap) {
  QuadProfiler q;
  const std::uint64_t a = q.allocate(100);
  const std::uint64_t b = q.allocate(100);
  EXPECT_GE(b, a + 100);
  const std::uint64_t c = q.allocate(0);
  const std::uint64_t d = q.allocate(8);
  EXPECT_GT(d, c);
}

TEST(QuadProfiler, AllocationAlignment) {
  QuadProfiler q;
  (void)q.allocate(3, 1);
  const std::uint64_t aligned = q.allocate(16, 64);
  EXPECT_EQ(aligned % 64, 0U);
}

// ---------------------------------------------------------------------------
// Deferred mode: attributing coalesced runs must reproduce eager
// attribution exactly.
// ---------------------------------------------------------------------------

/// A deterministic workload with page-crossing accesses, overwrites,
/// repeated reads and nested scopes.
void run_workload(QuadProfiler& q) {
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const FunctionId c = q.declare("c");
  const std::uint64_t buf = q.allocate(256 * 1024);
  q.enter(a);
  q.add_work(1000);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    q.record_write(buf + i * 37 % (256 * 1024 - 64), 48 + i % 16);
  }
  q.leave();
  q.enter(b);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    q.record_write(buf + (i * 97 + 13) % (256 * 1024 - 64), 32);
  }
  q.enter(c);  // Nested: reads attribute to c, not b.
  for (std::uint64_t i = 0; i < 4000; ++i) {
    q.record_read(buf + i * 61 % (256 * 1024 - 64), 40 + i % 24);
  }
  q.leave();
  q.leave();
  q.enter(c);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.record_read(buf + i * 4093 % (256 * 1024 - 64), 64);
  }
  q.leave();
}

void expect_same_profile(const QuadProfiler& x, const QuadProfiler& y) {
  const auto ex = x.graph().edges();
  const auto ey = y.graph().edges();
  ASSERT_EQ(ex.size(), ey.size());
  for (std::size_t i = 0; i < ex.size(); ++i) {
    EXPECT_EQ(ex[i].producer, ey[i].producer);
    EXPECT_EQ(ex[i].consumer, ey[i].consumer);
    EXPECT_EQ(ex[i].bytes.count(), ey[i].bytes.count());
    EXPECT_EQ(ex[i].unique_addresses, ey[i].unique_addresses);
  }
  ASSERT_EQ(x.graph().function_count(), y.graph().function_count());
  for (FunctionId f = 0; f < x.graph().function_count(); ++f) {
    EXPECT_EQ(x.graph().function(f).reads, y.graph().function(f).reads);
    EXPECT_EQ(x.graph().function(f).writes, y.graph().function(f).writes);
    EXPECT_EQ(x.graph().function(f).calls, y.graph().function(f).calls);
    EXPECT_EQ(x.graph().function(f).work_units,
              y.graph().function(f).work_units);
    EXPECT_EQ(x.unique_bytes_read(f), y.unique_bytes_read(f));
    EXPECT_EQ(x.unique_bytes_written(f), y.unique_bytes_written(f));
  }
  EXPECT_EQ(x.call_order(), y.call_order());
}

/// Whole-page writes (which leave shadow pages uniform) interleaved with
/// page-straddling reads and partial overwrites (which split them), with
/// no two consecutive accesses coalescing.
void run_page_workload(QuadProfiler& q) {
  constexpr std::uint64_t kPage = ShadowMemory::kPageBytes;
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const FunctionId c = q.declare("c");
  const std::uint64_t buf = q.allocate(65 * kPage, kPage);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    const std::uint64_t page = buf + i * 7 % 64 * kPage;
    q.enter(i % 3 == 0 ? a : b);
    q.record_write(page, kPage);
    q.leave();
    q.enter(c);
    q.record_read(page + i % 5 * 100, kPage);
    q.leave();
    if (i % 4 == 1) {
      q.enter(a);
      q.record_write(page + i % 61 * 64, 40);
      q.leave();
    }
  }
}

/// Sequential element accesses, as the applications make them: most
/// coalesce into runs, one across a re-entered scope and some covering
/// whole pages, while interleaved writes to another buffer and zero-size
/// reads end runs.
void run_element_workload(QuadProfiler& q) {
  constexpr std::uint64_t kElements = 6000;
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const std::uint64_t in = q.allocate(kElements * 4);
  const std::uint64_t out = q.allocate(kElements * 4);
  for (std::uint64_t half = 0; half < 2; ++half) {
    q.enter(a);
    for (std::uint64_t i = half * kElements / 2;
         i < (half + 1) * kElements / 2; ++i) {
      q.record_write(in + i * 4, 4);
    }
    q.leave();
  }
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    q.enter(b);
    for (std::uint64_t i = 0; i < kElements; ++i) {
      q.record_read(in + i * 4, 4);
      if (i % 1000 == 999) {
        q.record_read(in, 0);
      }
      if (i % 3 == pass) {
        q.record_write(out + i * 4, 4);
      }
    }
    q.leave();
  }
  q.enter(a);
  for (std::uint64_t i = 0; i < kElements; ++i) {
    q.record_read(out + i * 4, 4);
  }
  q.leave();
}

TEST(QuadDeferred, SerialReplayMatchesEager) {
  using Workload = void (*)(QuadProfiler&);
  for (const Workload run :
       {Workload{&run_workload}, Workload{&run_element_workload}}) {
    QuadProfiler eager{ProfileMode::kEager};
    run(eager);
    QuadProfiler deferred{ProfileMode::kDeferred};
    run(deferred);
    // snapshot() attributes the last run, as finalize() and seal() do.
    const ProfileSnapshot snap = deferred.snapshot();
    EXPECT_EQ(snap.edges.size(), eager.graph().edges().size());
    expect_same_profile(eager, deferred);
    // Every workload's buffers lie in the first 66 pages.
    for (std::uint64_t addr = 0; addr < 66 * ShadowMemory::kPageBytes;
         ++addr) {
      ASSERT_EQ(eager.shadow().last_writer(addr),
                deferred.shadow().last_writer(addr))
          << addr;
    }
  }
}

TEST(QuadDeferred, UniformPagesMatchEager) {
  QuadProfiler eager{ProfileMode::kEager};
  run_page_workload(eager);
  QuadProfiler deferred{ProfileMode::kDeferred};
  run_page_workload(deferred);
  deferred.finalize();
  expect_same_profile(eager, deferred);
  const ShadowMemory& x = eager.shadow();
  const ShadowMemory& y = deferred.shadow();
  EXPECT_EQ(x.page_count(), y.page_count());
  EXPECT_EQ(x.split_page_count(), y.split_page_count());
  EXPECT_LT(x.split_page_count(), x.page_count());
  EXPECT_EQ(eager.approx_memory_bytes(), deferred.approx_memory_bytes());
  for (std::uint64_t addr = 0x1000; addr < 0x1000 + 66 * 4096; ++addr) {
    ASSERT_EQ(x.last_writer(addr), y.last_writer(addr)) << addr;
  }
}

TEST(QuadProfiler, MemoryChargesShadowCellsOnlyForSplitPages) {
  constexpr std::uint64_t kPage = ShadowMemory::kPageBytes;
  constexpr std::uint64_t kCellBytes = kPage * sizeof(FunctionId);
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  const FunctionId g = q.declare("g");
  const std::uint64_t buf = q.allocate(16 * kPage, kPage);
  q.enter(f);
  q.record_write(buf, 16 * kPage);  // Sixteen uniform pages.
  q.leave();
  const std::uint64_t uniform_bytes = q.approx_memory_bytes();
  EXPECT_LT(uniform_bytes, 16 * kCellBytes);
  q.enter(g);
  q.record_write(buf + 8, 8);  // Splits one page.
  q.leave();
  EXPECT_EQ(q.shadow().split_page_count(), 1U);
  EXPECT_GE(q.approx_memory_bytes() - uniform_bytes, kCellBytes);
}

TEST(QuadDeferred, FinalizeIsIdempotentAndAllowsFurtherEagerUse) {
  QuadProfiler q{ProfileMode::kDeferred};
  const FunctionId p = q.declare("p");
  const FunctionId c = q.declare("c");
  const std::uint64_t addr = q.allocate(64);
  q.enter(p);
  q.record_write(addr, 64);
  q.leave();
  q.finalize();
  q.finalize();  // Idempotent.
  q.enter(c);
  q.record_read(addr, 64);  // Post-finalize accesses attribute eagerly.
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(p, c).count(), 64U);
  const auto edges = q.graph().edges();
  ASSERT_EQ(edges.size(), 1U);
  EXPECT_EQ(edges[0].unique_addresses, 64U);
}

TEST(QuadSnapshot, RoundTripPreservesDownstreamView) {
  QuadProfiler q{ProfileMode::kDeferred};
  run_workload(q);
  q.finalize();
  const ProfileSnapshot snap = q.snapshot();
  const std::unique_ptr<QuadProfiler> restored =
      QuadProfiler::from_snapshot(snap);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->sealed());
  expect_same_profile(q, *restored);
  EXPECT_EQ(q.memory_report(), restored->memory_report());
}

TEST(QuadSnapshot, RestoredProfilerRejectsNewAccesses) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  q.enter(f);
  q.record_write(q.allocate(16), 16);
  q.leave();
  const std::unique_ptr<QuadProfiler> restored =
      QuadProfiler::from_snapshot(q.snapshot());
  restored->enter(f);
  EXPECT_THROW(restored->record_write(0x1000, 4), ConfigError);
  EXPECT_THROW(restored->record_read(0x1000, 4), ConfigError);
  restored->leave();
}

// ---------------------------------------------------------------------------
// Sealing: a finished profile keeps only what downstream code reads.
// ---------------------------------------------------------------------------

void expect_same_snapshot(const ProfileSnapshot& x, const ProfileSnapshot& y) {
  ASSERT_EQ(x.functions.size(), y.functions.size());
  for (std::size_t i = 0; i < x.functions.size(); ++i) {
    const ProfileSnapshot::Function& a = x.functions[i];
    const ProfileSnapshot::Function& b = y.functions[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.work_units, b.work_units);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.unique_bytes_read, b.unique_bytes_read);
    EXPECT_EQ(a.unique_bytes_written, b.unique_bytes_written);
  }
  ASSERT_EQ(x.edges.size(), y.edges.size());
  for (std::size_t i = 0; i < x.edges.size(); ++i) {
    EXPECT_EQ(x.edges[i].producer, y.edges[i].producer);
    EXPECT_EQ(x.edges[i].consumer, y.edges[i].consumer);
    EXPECT_EQ(x.edges[i].bytes, y.edges[i].bytes);
    EXPECT_EQ(x.edges[i].unique_addresses, y.edges[i].unique_addresses);
  }
  EXPECT_EQ(x.call_order, y.call_order);
}

struct SealWorkload {
  const char* name;
  void (*run)(QuadProfiler&);
};

// Prints the workload's name: gtest would print a function pointer as its
// address, which moves with every run and would leak into the ctest names.
void PrintTo(const SealWorkload& workload, std::ostream* os) {
  *os << workload.name;
}

class QuadSeal : public ::testing::TestWithParam<SealWorkload> {};

TEST_P(QuadSeal, SealedEqualsFinalizedOnEveryReadSideQuery) {
  QuadProfiler finalized{ProfileMode::kDeferred};
  GetParam().run(finalized);
  finalized.finalize();
  QuadProfiler sealed{ProfileMode::kDeferred};
  GetParam().run(sealed);
  sealed.seal();
  EXPECT_FALSE(finalized.sealed());
  EXPECT_TRUE(sealed.sealed());
  expect_same_profile(finalized, sealed);
  EXPECT_EQ(finalized.memory_report(), sealed.memory_report());
  expect_same_snapshot(finalized.snapshot(), sealed.snapshot());
}

TEST_P(QuadSeal, SealFreesShadowKeepsScanCountAndIsIdempotent) {
  QuadProfiler q{ProfileMode::kEager};
  GetParam().run(q);
  const std::uint64_t scans = q.shadow().scan_count();
  const std::uint64_t unsealed_bytes = q.approx_memory_bytes();
  ASSERT_GT(scans, 0U);
  ASSERT_GT(q.shadow().page_count(), 0U);
  const std::string report = q.memory_report();
  q.seal();
  EXPECT_EQ(q.shadow().page_count(), 0U);
  EXPECT_EQ(q.shadow().split_page_count(), 0U);
  EXPECT_EQ(q.shadow().scan_count(), scans);
  const std::uint64_t sealed_bytes = q.approx_memory_bytes();
  EXPECT_LT(sealed_bytes * 10, unsealed_bytes);
  q.seal();  // Idempotent.
  EXPECT_TRUE(q.sealed());
  EXPECT_EQ(q.shadow().scan_count(), scans);
  EXPECT_EQ(q.approx_memory_bytes(), sealed_bytes);
  EXPECT_EQ(q.memory_report(), report);
  // The state from_snapshot builds, down to the memory accounting.
  EXPECT_EQ(QuadProfiler::from_snapshot(q.snapshot())->approx_memory_bytes(),
            sealed_bytes);
}

TEST_P(QuadSeal, SealedProfilerRejectsRecording) {
  QuadProfiler q{ProfileMode::kDeferred};
  GetParam().run(q);
  q.seal();
  const std::uint64_t edges = q.graph().edges().size();
  q.enter(0);
  EXPECT_THROW(q.record_write(0x1000, 4), ConfigError);
  EXPECT_THROW(q.record_read(0x1000, 4), ConfigError);
  q.leave();
  EXPECT_THROW((void)q.declare("late"), ConfigError);
  EXPECT_EQ(q.graph().edges().size(), edges);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, QuadSeal,
    ::testing::Values(SealWorkload{"Mixed", &run_workload},
                      SealWorkload{"UniformPages", &run_page_workload}));

TEST(QuadSeal, SealWithOpenScopeThrows) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  q.enter(f);
  EXPECT_THROW(q.seal(), ConfigError);
  q.leave();
  q.seal();
  EXPECT_TRUE(q.sealed());
}

TEST(ScopedFunctionTest, RaiiEnterLeave) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  {
    ScopedFunction scope{q, f};
    EXPECT_EQ(q.call_depth(), 1U);
  }
  EXPECT_EQ(q.call_depth(), 0U);
}

}  // namespace
}  // namespace hybridic::prof
