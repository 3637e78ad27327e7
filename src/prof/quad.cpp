#include "prof/quad.hpp"

#include "util/error.hpp"
#include "util/table.hpp"

namespace hybridic::prof {

FunctionId QuadProfiler::declare(std::string name) {
  require(!sealed_, "declare() on a sealed profiler");
  const FunctionId id = graph_.add_function(std::move(name));
  write_footprint_.emplace_back();
  read_footprint_.emplace_back();
  edge_slots_.emplace_back();
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

void QuadProfiler::record(std::uint64_t addr, std::uint64_t size,
                          bool write) {
  require(!sealed_, write ? "record_write on a sealed profiler"
                          : "record_read on a sealed profiler");
  const FunctionId function = current();
  if (mode_ == ProfileMode::kEager || finalized_) {
    attribute({addr, size, function, write});
    return;
  }
  attribute_pending();
  // Coalescing caps a run at kMaxRun bytes: a longer access is attributed
  // in kMaxRun pieces and only its tail stays pending.
  while (size > kMaxRun) {
    attribute({addr, kMaxRun, function, write});
    addr += kMaxRun;
    size -= kMaxRun;
  }
  // Field by field: the next access's extend_pending loads them one at a
  // time, and a whole-struct copy compiles to wider stores that those
  // loads straddle, which the store buffer cannot forward.
  pending_.addr = addr;
  pending_.size = size;
  pending_.function = function;
  pending_.write = write;
}

void QuadProfiler::attribute_pending() {
  if (pending_.function != kNoWriter) {
    attribute(pending_);
    pending_.function = kNoWriter;
  }
}

void QuadProfiler::attribute(const Run& run) {
  FunctionProfile& profile = graph_.function_mutable(run.function);
  if (run.write) {
    profile.writes += run.size;
    write_footprint_[run.function].insert_range(run.addr, run.size);
    shadow_.write(run.addr, run.size, run.function);
    return;
  }
  profile.reads += run.size;
  read_footprint_[run.function].insert_range(run.addr, run.size);
  std::vector<std::unique_ptr<EdgeSlot>>& row = edge_slots_[run.function];
  shadow_.scan(run.addr, run.size,
               [this, &row, consumer = run.function](std::uint64_t start,
                                                     std::uint64_t length,
                                                     FunctionId producer) {
                 if (producer == kNoWriter) {
                   return;  // Uninitialized data: no communication edge.
                 }
                 if (producer >= row.size() || row[producer] == nullptr) {
                   add_edge_slot(row, producer, consumer);
                 }
                 EdgeSlot& edge = *row[producer];
                 edge.totals->bytes += length;
                 edge.totals->unique_addresses +=
                     edge.uma.insert_range(start, length);
               });
}

void QuadProfiler::add_edge_slot(
    std::vector<std::unique_ptr<EdgeSlot>>& row, FunctionId producer,
    FunctionId consumer) {
  if (producer >= row.size()) {
    row.resize(graph_.function_count());
  }
  row[producer] = std::make_unique<EdgeSlot>();
  row[producer]->totals = &graph_.totals(producer, consumer);
}

void QuadProfiler::add_work(std::uint64_t units) {
  graph_.function_mutable(current()).work_units += units;
}

void QuadProfiler::finalize() {
  attribute_pending();
  finalized_ = true;
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
  // Move-assign empty vectors: clear() would keep their capacity.
  read_footprint_ = std::vector<PagedByteSet>{};
  write_footprint_ = std::vector<PagedByteSet>{};
  edge_slots_ = std::vector<std::vector<std::unique_ptr<EdgeSlot>>>{};
  sealed_ = true;
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

ProfileSnapshot QuadProfiler::snapshot() {
  require(stack_.empty(), "snapshot() with open function scopes");
  attribute_pending();
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
  for (const auto& row : edge_slots_) {
    for (const auto& slot : row) {
      if (slot != nullptr) {
        total += byte_set_bytes(slot->uma) + 64;
      }
    }
  }
  return total;
}

}  // namespace hybridic::prof
