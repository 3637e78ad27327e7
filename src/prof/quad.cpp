#include "prof/quad.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hybridic::prof {

namespace {

/// Shards in the parallel replay partition. Fixed — NOT derived from the
/// thread count — so the shard structure (and therefore every integer sum)
/// is the same no matter how many workers execute it. Sixteen shards keep
/// all cores busy up to 16-way parallelism while the per-shard trace walk
/// stays cheap.
constexpr std::size_t kReplayShards = 16;

/// Below this many events the sharded replay's per-shard trace walks cost
/// more than they save; replay serially instead.
constexpr std::size_t kSerialReplayThreshold = 4096;

constexpr std::uint64_t kShadowPage = ShadowMemory::kPageBytes;

std::size_t shard_of_page(std::uint64_t page) { return page % kReplayShards; }

}  // namespace

FunctionId QuadProfiler::declare(std::string name) {
  require(!sealed_, "declare() on a sealed profiler");
  const FunctionId id = graph_.add_function(std::move(name));
  write_footprint_.emplace_back();
  read_footprint_.emplace_back();
  return id;
}

void QuadProfiler::enter(FunctionId function) {
  require(function < graph_.function_count(),
          "enter() with undeclared function");
  stack_.push_back(function);
  if (graph_.function_mutable(function).calls == 0) {
    first_call_order_.push_back(function);
  }
  ++graph_.function_mutable(function).calls;
}

void QuadProfiler::leave() {
  require(!stack_.empty(), "leave() without matching enter()");
  stack_.pop_back();
}

FunctionId QuadProfiler::current() const {
  require(!stack_.empty(), "profiled memory access outside any function");
  return stack_.back();
}

std::uint64_t QuadProfiler::allocate(std::uint64_t bytes,
                                     std::uint64_t alignment) {
  require(alignment > 0, "allocation alignment must be non-zero");
  next_addr_ = (next_addr_ + alignment - 1) / alignment * alignment;
  const std::uint64_t base = next_addr_;
  next_addr_ += bytes == 0 ? alignment : bytes;
  return base;
}

void QuadProfiler::record_write(std::uint64_t addr, std::uint64_t size) {
  require(!sealed_, "record_write on a sealed profiler");
  const FunctionId writer = current();
  graph_.function_mutable(writer).writes += size;
  write_footprint_[writer].insert_range(addr, size);
  if (mode_ == ProfileMode::kDeferred && !finalized_) {
    const std::uint32_t fn_op = (writer << 1) | 1U;
    if (!trace_.empty() && trace_.back().fn_op == fn_op &&
        trace_.back().addr + trace_.back().size == addr &&
        trace_.back().size + size <=
            std::numeric_limits<std::uint32_t>::max()) {
      trace_.back().size += static_cast<std::uint32_t>(size);
      return;
    }
    while (size > std::numeric_limits<std::uint32_t>::max()) {
      trace_.push_back(TraceEvent{
          addr, std::numeric_limits<std::uint32_t>::max(), fn_op});
      addr += std::numeric_limits<std::uint32_t>::max();
      size -= std::numeric_limits<std::uint32_t>::max();
    }
    trace_.push_back(TraceEvent{addr, static_cast<std::uint32_t>(size),
                                fn_op});
    return;
  }
  shadow_.write(addr, size, writer);
}

void QuadProfiler::record_read(std::uint64_t addr, std::uint64_t size) {
  require(!sealed_, "record_read on a sealed profiler");
  const FunctionId consumer = current();
  graph_.function_mutable(consumer).reads += size;
  read_footprint_[consumer].insert_range(addr, size);
  if (mode_ == ProfileMode::kDeferred && !finalized_) {
    const std::uint32_t fn_op = consumer << 1;
    if (!trace_.empty() && trace_.back().fn_op == fn_op &&
        trace_.back().addr + trace_.back().size == addr &&
        trace_.back().size + size <=
            std::numeric_limits<std::uint32_t>::max()) {
      trace_.back().size += static_cast<std::uint32_t>(size);
      return;
    }
    while (size > std::numeric_limits<std::uint32_t>::max()) {
      trace_.push_back(TraceEvent{
          addr, std::numeric_limits<std::uint32_t>::max(), fn_op});
      addr += std::numeric_limits<std::uint32_t>::max();
      size -= std::numeric_limits<std::uint32_t>::max();
    }
    trace_.push_back(TraceEvent{addr, static_cast<std::uint32_t>(size),
                                fn_op});
    return;
  }
  attribute_read_eager(consumer, addr, size);
}

void QuadProfiler::attribute_read_eager(FunctionId consumer,
                                        std::uint64_t addr,
                                        std::uint64_t size) {
  shadow_.scan(addr, size,
               [this, consumer](std::uint64_t run_start, std::uint64_t length,
                                FunctionId producer) {
                 if (producer == kNoWriter) {
                   return;  // Uninitialized data: no communication edge.
                 }
                 const std::uint64_t fresh =
                     uma_[{producer, consumer}].insert_range(run_start,
                                                             length);
                 graph_.add_transfer(producer, consumer, Bytes{length},
                                     fresh);
               });
}

void QuadProfiler::add_work(std::uint64_t units) {
  graph_.function_mutable(current()).work_units += units;
}

void QuadProfiler::finalize(ThreadPool* pool) {
  if (mode_ != ProfileMode::kDeferred || finalized_) {
    finalized_ = true;
    return;
  }
  finalized_ = true;
  if (trace_.empty()) {
    return;
  }
  if (pool == nullptr) {
    pool = ThreadPool::current();
  }
  if (pool == nullptr || pool->thread_count() <= 1 ||
      trace_.size() < kSerialReplayThreshold) {
    replay_serial();
  } else {
    replay_sharded(*pool);
  }
  trace_.clear();
  trace_.shrink_to_fit();
}

void QuadProfiler::seal() {
  if (sealed_) {
    return;
  }
  require(stack_.empty(), "seal() with open function scopes");
  finalize();
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    sealed_unique_read_.push_back(read_footprint_[id].size());
    sealed_unique_written_.push_back(write_footprint_[id].size());
  }
  shadow_.release();
  uma_.clear();
  // Move-assign empty vectors: clear() would keep their capacity.
  read_footprint_ = std::vector<PagedByteSet>{};
  write_footprint_ = std::vector<PagedByteSet>{};
  trace_ = std::vector<TraceEvent>{};
  sealed_ = true;
}

void QuadProfiler::replay_serial() {
  for (const TraceEvent& event : trace_) {
    const auto fn = static_cast<FunctionId>(event.fn_op >> 1);
    if ((event.fn_op & 1U) != 0) {
      shadow_.write(event.addr, event.size, fn);
    } else {
      attribute_read_eager(fn, event.addr, event.size);
    }
  }
}

void QuadProfiler::replay_sharded(ThreadPool& pool) {
  // Each shard owns the pages with page_index % kReplayShards == shard and
  // replays the full trace restricted to those pages into private state.
  // Byte-disjoint shards mean per-edge byte/UMA counts partition exactly,
  // so the serial merge below reproduces the eager totals bit for bit.
  struct Shard {
    ShadowMemory shadow;
    std::map<std::pair<FunctionId, FunctionId>, PagedByteSet> uma;
    struct EdgeAccum {
      std::uint64_t bytes = 0;
      std::uint64_t unique_addresses = 0;
    };
    std::map<std::pair<FunctionId, FunctionId>, EdgeAccum> edges;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(kReplayShards);
  for (std::size_t i = 0; i < kReplayShards; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }

  TaskGroup group{&pool};
  for (std::size_t index = 0; index < kReplayShards; ++index) {
    group.add([this, index, shard = shards[index].get()] {
      for (const TraceEvent& event : trace_) {
        const auto fn = static_cast<FunctionId>(event.fn_op >> 1);
        const bool is_write = (event.fn_op & 1U) != 0;
        std::uint64_t pos = event.addr;
        const std::uint64_t end = event.addr + event.size;
        while (pos < end) {
          const std::uint64_t in_page =
              std::min(end - pos, kShadowPage - pos % kShadowPage);
          if (shard_of_page(pos / kShadowPage) == index) {
            if (is_write) {
              shard->shadow.write(pos, in_page, fn);
            } else {
              shard->shadow.scan(
                  pos, in_page,
                  [shard, fn](std::uint64_t run_start, std::uint64_t length,
                              FunctionId producer) {
                    if (producer == kNoWriter) {
                      return;
                    }
                    const std::uint64_t fresh =
                        shard->uma[{producer, fn}].insert_range(run_start,
                                                                length);
                    auto& edge = shard->edges[{producer, fn}];
                    edge.bytes += length;
                    edge.unique_addresses += fresh;
                  });
            }
          }
          pos += in_page;
        }
      }
    });
  }
  group.run_and_wait();

  // Serial merge, shard order. Edge sums are order-independent integers;
  // shadow pages and UMA bitmaps are page-disjoint across shards.
  for (auto& shard : shards) {
    for (const auto& [key, edge] : shard->edges) {
      graph_.add_transfer(key.first, key.second, Bytes{edge.bytes},
                          edge.unique_addresses);
    }
    shadow_.absorb(shard->shadow);
    for (auto& [key, set] : shard->uma) {
      // Page-disjoint across shards; the merged sets keep post-finalize
      // eager reads counting fresh addresses correctly.
      uma_[key].absorb(set);
    }
  }
}

std::uint64_t QuadProfiler::unique_bytes_written(FunctionId function) const {
  require(function < graph_.function_count(),
          "footprint query for undeclared function");
  return sealed_ ? sealed_unique_written_[function]
                 : write_footprint_[function].size();
}

std::uint64_t QuadProfiler::unique_bytes_read(FunctionId function) const {
  require(function < graph_.function_count(),
          "footprint query for undeclared function");
  return sealed_ ? sealed_unique_read_[function]
                 : read_footprint_[function].size();
}

std::string QuadProfiler::memory_report() const {
  Table table{"Memory profile"};
  table.set_header({"function", "calls", "work", "bytes read",
                    "unique read", "bytes written", "unique written"});
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    const FunctionProfile& fn = graph_.function(id);
    table.add_row({fn.name, std::to_string(fn.calls),
                   std::to_string(fn.work_units),
                   std::to_string(fn.reads),
                   std::to_string(unique_bytes_read(id)),
                   std::to_string(fn.writes),
                   std::to_string(unique_bytes_written(id))});
  }
  return table.to_string();
}

ProfileSnapshot QuadProfiler::snapshot() const {
  require(stack_.empty(), "snapshot() with open function scopes");
  require(mode_ != ProfileMode::kDeferred || finalized_ || trace_.empty(),
          "snapshot() before finalize() on a deferred profiler");
  ProfileSnapshot snap;
  snap.functions.reserve(graph_.function_count());
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    const FunctionProfile& fn = graph_.function(id);
    snap.functions.push_back(ProfileSnapshot::Function{
        fn.name, fn.work_units, fn.reads, fn.writes, fn.calls,
        unique_bytes_read(id), unique_bytes_written(id)});
  }
  for (const CommEdge& edge : graph_.edges()) {
    snap.edges.push_back(ProfileSnapshot::Edge{
        edge.producer, edge.consumer, edge.bytes.count(),
        edge.unique_addresses});
  }
  snap.call_order = first_call_order_;
  return snap;
}

std::unique_ptr<QuadProfiler> QuadProfiler::from_snapshot(
    const ProfileSnapshot& snap) {
  auto profiler = std::make_unique<QuadProfiler>(ProfileMode::kEager);
  profiler->finalized_ = true;
  profiler->sealed_ = true;
  for (const ProfileSnapshot::Function& fn : snap.functions) {
    const FunctionId id = profiler->graph_.add_function(fn.name);
    FunctionProfile& record = profiler->graph_.function_mutable(id);
    record.work_units = fn.work_units;
    record.reads = fn.reads;
    record.writes = fn.writes;
    record.calls = fn.calls;
    profiler->sealed_unique_read_.push_back(fn.unique_bytes_read);
    profiler->sealed_unique_written_.push_back(fn.unique_bytes_written);
  }
  for (const ProfileSnapshot::Edge& edge : snap.edges) {
    require(edge.producer < profiler->graph_.function_count() &&
                edge.consumer < profiler->graph_.function_count(),
            "snapshot edge references undeclared function");
    profiler->graph_.add_transfer(edge.producer, edge.consumer,
                                  Bytes{edge.bytes}, edge.unique_addresses);
  }
  for (const FunctionId id : snap.call_order) {
    require(id < profiler->graph_.function_count(),
            "snapshot call order references undeclared function");
  }
  profiler->first_call_order_ = snap.call_order;
  return profiler;
}

std::uint64_t QuadProfiler::approx_memory_bytes() const {
  // What a sealed profiler keeps: graph, names, footprint counts.
  std::uint64_t total = sizeof(QuadProfiler);
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    total += graph_.function(id).name.size() + 128;
  }
  total += graph_.edge_count() * 64;
  total += (sealed_unique_read_.size() + sealed_unique_written_.size()) *
           sizeof(std::uint64_t);
  total += first_call_order_.size() * sizeof(FunctionId);
  // Recording state, freed by seal().
  total += shadow_.page_count() * 64 +
           shadow_.split_page_count() * ShadowMemory::kPageBytes *
               sizeof(FunctionId);
  total += trace_.capacity() * sizeof(TraceEvent);
  const auto byte_set_bytes = [](const PagedByteSet& set) {
    return set.page_count() * 64 +
           set.bitmap_page_count() * (PagedByteSet::kPageBytes / 8);
  };
  for (const PagedByteSet& set : write_footprint_) {
    total += byte_set_bytes(set);
  }
  for (const PagedByteSet& set : read_footprint_) {
    total += byte_set_bytes(set);
  }
  for (const auto& [key, set] : uma_) {
    (void)key;
    total += byte_set_bytes(set) + 64;
  }
  return total;
}

}  // namespace hybridic::prof
