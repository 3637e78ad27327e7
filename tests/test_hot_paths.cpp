// Allocation-free hot paths (docs/MODEL.md §10), tested by counting every
// global operator new this binary makes. The replacement operators below
// are why this suite is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/synthetic.hpp"
#include "noc/network.hpp"
#include "prof/byte_set.hpp"
#include "prof/tracked.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
/// Allocations the size of one PagedByteSet page bitmap. No hash-node or
/// bucket array has this size (buckets come in prime counts).
std::atomic<std::uint64_t> g_bitmap_sized{0};
constexpr std::size_t kBitmapBytes =
    hybridic::prof::PagedByteSet::kPageBytes / 8;

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == kBitmapBytes) {
    g_bitmap_sized.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* block = alignment <= alignof(std::max_align_t)
                    ? std::malloc(size)
                    : std::aligned_alloc(
                          alignment, (size + alignment - 1) / alignment *
                                         alignment);
  if (block == nullptr) {
    throw std::bad_alloc{};
  }
  return block;
}

}  // namespace

// The array and nothrow forms forward to these by default.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}

namespace hybridic {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(HotPaths, PassingChecksDoNotAllocate) {
  // Opaque to the optimiser, so every check is really evaluated.
  volatile bool holds = true;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 5000; ++i) {
    require(holds, "a passing check whose message is past the inline buffer");
    sim_assert(holds, "a passing assertion with a long literal message");
  }
  EXPECT_EQ(allocations() - before, 0U);
}

TEST(HotPaths, TrackedAccessesDoNotAllocateOnExistingPages) {
  for (const prof::ProfileMode mode :
       {prof::ProfileMode::kEager, prof::ProfileMode::kDeferred}) {
    prof::QuadProfiler q{mode};
    const prof::FunctionId producer = q.declare("producer");
    const prof::FunctionId consumer = q.declare("consumer");
    prof::TrackedBuffer<std::uint32_t> buffer{q, "buffer_with_a_long_name",
                                              3000};
    // Warm-up: every shadow page, footprint and UMA bitmap, the edge and
    // the scope stack exist afterwards. The last producer write ends the
    // consumer's run, so a deferred profiler attributes it too.
    {
      prof::ScopedFunction scope{q, producer};
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer.set(i, static_cast<std::uint32_t>(i));
      }
    }
    {
      prof::ScopedFunction scope{q, consumer};
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        (void)buffer.get(i);
      }
    }
    {
      prof::ScopedFunction scope{q, producer};
      buffer.set(0, 0);
    }

    std::uint64_t sum = 0;
    const std::uint64_t before = allocations();
    {
      prof::ScopedFunction scope{q, producer};
      for (std::size_t i = 0; i < 5000; ++i) {
        buffer.set(i * 7 % buffer.size(), static_cast<std::uint32_t>(i));
      }
    }
    {
      prof::ScopedFunction scope{q, consumer};
      for (std::size_t i = 0; i < 5000; ++i) {
        sum += buffer.get(i * 11 % buffer.size());
      }
    }
    EXPECT_EQ(allocations() - before, 0U)
        << (mode == prof::ProfileMode::kEager ? "eager" : "deferred");
    EXPECT_GT(sum, 0U);
    q.finalize();
    EXPECT_EQ(q.graph().bytes_between(producer, consumer).count(),
              (3000U + 5000U) * sizeof(std::uint32_t));
  }
}

TEST(HotPaths, WholePageInsertsAllocateNoBitmap) {
  constexpr std::uint64_t kPage = prof::PagedByteSet::kPageBytes;
  prof::PagedByteSet set;
  const std::uint64_t before = g_bitmap_sized.load();
  // One 64-page range, then page by page: every page is whole.
  EXPECT_EQ(set.insert_range(0, 64 * kPage), 64 * kPage);
  for (std::uint64_t page = 100; page < 164; ++page) {
    EXPECT_EQ(set.insert_range(page * kPage, kPage), kPage);
  }
  EXPECT_EQ(g_bitmap_sized.load() - before, 0U);
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  // The counter does see a bitmap: a partial insert needs one.
  (void)set.insert_range(200 * kPage + 1, 10);
  EXPECT_EQ(g_bitmap_sized.load() - before, 1U);
}

TEST(HotPaths, ElementInsertsIntoCachedPartialPageDoNotAllocate) {
  constexpr std::uint64_t kPage = prof::PagedByteSet::kPageBytes;
  prof::PagedByteSet set;
  (void)set.insert_range(7 * kPage + 3, 1);  // Warm-up: the bitmap exists.
  (void)set.insert_range(9 * kPage, kPage);  // A full neighbour.
  const std::uint64_t before = allocations();
  std::uint64_t fresh = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    fresh += set.insert_range(7 * kPage + i * 7 % (kPage - 4), 4);
  }
  EXPECT_EQ(allocations() - before, 0U);
  EXPECT_GT(fresh, 0U);
  EXPECT_EQ(set.bitmap_page_count(), 1U);
}

TEST(HotPaths, SyntheticProfilingAllocatesPerChunkNotPerPage) {
  // The default shape at 64 KiB and at 4 MiB edges: 64 times the bytes
  // and pages, but each 256 KiB chunk costs one node per byte set and
  // shadow, so the allocations grow with chunks alone (192 and 525 when
  // this was written; a node per 4 KiB page made them 532 and 21207).
  const auto profile_allocations = [](std::uint64_t max_edge_bytes) {
    apps::SyntheticConfig config;
    config.max_edge_bytes = max_edge_bytes;
    const std::uint64_t before = allocations();
    const apps::ProfiledApp app = apps::make_synthetic_app(config);
    EXPECT_GT(app.graph().edge_count(), 0U);
    return allocations() - before;
  };
  const std::uint64_t small = profile_allocations(64 * 1024);
  const std::uint64_t large = profile_allocations(4 * 1024 * 1024);
  EXPECT_LT(large, 4 * small) << "64 KiB: " << small << ", 4 MiB: " << large;
}

/// A clocked component that stays active for a fixed number of edges.
class Countdown : public sim::Ticking {
public:
  explicit Countdown(int ticks) : left_(ticks) {}
  bool tick(Picoseconds /*now*/) override { return --left_ > 0; }
  void rearm(int ticks) { left_ = ticks; }

private:
  int left_;
};

TEST(HotPaths, EngineScheduleRunLoopDoesNotAllocateAfterWarmUp) {
  sim::Engine engine;
  const sim::ClockDomain clock{"fabric_clock", Frequency::megahertz(100)};
  Countdown component{100};
  engine.attach_ticking(component, clock);
  std::uint64_t fired = 0;
  const auto round = [&] {
    component.rearm(100);
    engine.activate();
    for (std::uint64_t i = 0; i < 1000; ++i) {
      engine.schedule_after(Picoseconds{i % 17 * 1000},
                            [&fired] { ++fired; });
      engine.schedule_at(engine.now() + Picoseconds{i % 5 * 3000},
                         [&fired] { ++fired; });
    }
    engine.run();
  };
  round();  // Warm-up: the event heap reaches its capacity.

  const std::uint64_t before = allocations();
  for (int r = 0; r < 5; ++r) {
    round();
  }
  EXPECT_EQ(allocations() - before, 0U);
  EXPECT_EQ(fired, 6U * 2000U);
}

/// A 4x4 NoC with an adapter at every node.
struct Noc {
  Noc() {
    for (std::uint32_t node = 0; node < 16; ++node) {
      network.attach_adapter(node, "n", noc::AdapterKind::kAccelerator);
    }
  }
  sim::Engine engine;
  sim::ClockDomain clock{"noc", Frequency::megahertz(150)};
  noc::Network network{"noc", engine, clock, noc::Mesh2D{4, 4},
                       noc::NetworkConfig{}};
};

TEST(HotPaths, NocSendCostDoesNotGrowWithMessageSize) {
  // A queued message is one descriptor; its flits are built at injection.
  const auto send_allocations = [](std::uint64_t bytes) {
    Noc noc;
    bool delivered = false;
    const std::uint64_t before = allocations();
    noc.network.send(0, 15, Bytes{bytes},
                     [&delivered](std::uint64_t, Bytes, Picoseconds) {
                       delivered = true;
                     });
    const std::uint64_t used = allocations() - before;
    noc.engine.run();
    EXPECT_TRUE(delivered);
    return used;
  };
  const std::uint64_t small = send_allocations(4096);
  const std::uint64_t large = send_allocations(1U << 20);
  EXPECT_LE(large, small);
}

TEST(HotPaths, TickingAWarmNocDoesNotAllocate) {
  Noc noc;
  int delivered = 0;
  const auto send_round = [&] {
    // Four sources into one sink, as in the cycle sweep: packets of
    // different messages interleave at the sink's ejection port.
    for (const std::uint32_t source : {0U, 3U, 12U, 15U}) {
      noc.network.send(source, 5, Bytes{16384},
                       [&delivered](std::uint64_t, Bytes, Picoseconds) {
                         ++delivered;
                       });
    }
  };
  send_round();
  noc.engine.run();  // Warm-up: the tick wheel reaches its capacity.

  send_round();
  const std::uint64_t before = allocations();
  noc.engine.run();
  EXPECT_EQ(allocations() - before, 0U);
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(noc.network.inflight_messages(), 0U);
}

}  // namespace
}  // namespace hybridic
