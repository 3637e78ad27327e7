#include "apps/profile_cache.hpp"

#include <sstream>

namespace hybridic::apps {

std::shared_ptr<const ProfiledApp> ProfileCache::get(const std::string& key,
                                                     const Factory& make) {
  std::promise<std::shared_ptr<const ProfiledApp>> promise;
  Entry entry;
  std::shared_ptr<ProfileL2> l2;
  {
    std::unique_lock<std::mutex> lock{mutex_};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      entry = it->second.future;
      lock.unlock();
      if (entry.wait_for(std::chrono::seconds{0}) !=
          std::future_status::ready) {
        // This hit convoys on an in-flight computation instead of doing
        // useful work — the counter is what cold-batch benches watch.
        convoy_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      return entry.get();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    entry = promise.get_future().share();
    lru_.push_front(key);
    entries_.emplace(key, Record{entry, 0, false, lru_.begin()});
    l2 = l2_;
  }
  // Fulfill outside the lock so other keys proceed concurrently. L2 is
  // consulted here — inside the single-flight — so concurrent requesters
  // of one key trigger at most one disk read.
  std::shared_ptr<const ProfiledApp> app;
  if (l2 != nullptr) {
    app = l2->load(key);
    if (app != nullptr) {
      l2_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  try {
    if (app == nullptr) {
      app = std::make_shared<const ProfiledApp>(make());
      if (l2 != nullptr) {
        l2->store(key, *app);
        l2_stores_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    promise.set_value(app);
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  const std::uint64_t bytes = app != nullptr && app->profiler != nullptr
                                  ? app->profiler->approx_memory_bytes()
                                  : 0;
  std::vector<Entry> evicted;  // Destroyed after the lock is released.
  {
    std::unique_lock<std::mutex> lock{mutex_};
    publish_locked(key, bytes, evicted);
  }
  return entry.get();
}

void ProfileCache::publish_locked(const std::string& key,
                                  std::uint64_t bytes,
                                  std::vector<Entry>& evicted) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return;  // Evicted (or cleared) while computing — nothing to publish.
  }
  it->second.ready = true;
  it->second.bytes = bytes;
  resident_bytes_ += bytes;
  evict_over_caps_locked(evicted);
}

void ProfileCache::evict_over_caps_locked(std::vector<Entry>& evicted) {
  auto over = [this] {
    return (max_entries_ != 0 && entries_.size() > max_entries_) ||
           (max_bytes_ != 0 && resident_bytes_ > max_bytes_);
  };
  // Walk LRU from the cold end; skip in-flight entries (their owner still
  // needs to publish through the map).
  auto pos = lru_.end();
  while (over() && pos != lru_.begin()) {
    --pos;
    const auto it = entries_.find(*pos);
    if (it == entries_.end() || !it->second.ready) {
      continue;
    }
    resident_bytes_ -= it->second.bytes;
    evicted.push_back(std::move(it->second.future));
    entries_.erase(it);
    pos = lru_.erase(pos);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const ProfiledApp> ProfileCache::paper_app(
    const std::string& name) {
  return get(paper_key(name), [&name] { return run_paper_app(name); });
}

std::shared_ptr<const ProfiledApp> ProfileCache::synthetic_app(
    const SyntheticConfig& config) {
  return get(synthetic_key(config),
             [&config] { return make_synthetic_app(config); });
}

std::string ProfileCache::paper_key(const std::string& name) {
  // Paper apps are only ever profiled at their default workload size; the
  // key still spells that out so future size knobs cannot alias.
  return "paper/" + name + "/default";
}

std::string ProfileCache::synthetic_key(const SyntheticConfig& config) {
  std::ostringstream key;
  key << "synthetic/k=" << config.kernel_count
      << "/h=" << config.host_function_count
      << "/p=" << config.kernel_edge_probability
      << "/bytes=" << config.min_edge_bytes << '-' << config.max_edge_bytes
      << "/work=" << config.min_work_units << '-' << config.max_work_units
      << "/dup=" << config.duplicable_probability
      << "/stream=" << config.streaming_probability
      << "/seed=" << config.seed;
  return key.str();
}

void ProfileCache::set_l2(std::shared_ptr<ProfileL2> l2) {
  std::unique_lock<std::mutex> lock{mutex_};
  l2_ = std::move(l2);
}

void ProfileCache::set_capacity(std::size_t max_entries,
                                std::uint64_t max_bytes) {
  std::vector<Entry> evicted;  // Destroyed after the lock is released.
  std::unique_lock<std::mutex> lock{mutex_};
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
  evict_over_caps_locked(evicted);
}

std::uint64_t ProfileCache::resident_bytes() const {
  std::unique_lock<std::mutex> lock{mutex_};
  return resident_bytes_;
}

ProfileCacheStats ProfileCache::stats() const {
  ProfileCacheStats s;
  s.hits = hits();
  s.misses = misses();
  s.convoy_waits = convoy_waits();
  s.l2_hits = l2_hits();
  s.l2_stores = l2_stores();
  s.evictions = evictions();
  std::unique_lock<std::mutex> lock{mutex_};
  s.resident_bytes = resident_bytes_;
  s.entries = entries_.size();
  return s;
}

std::size_t ProfileCache::size() const {
  std::unique_lock<std::mutex> lock{mutex_};
  return entries_.size();
}

void ProfileCache::clear() {
  decltype(entries_) dropped;  // Destroyed after the lock is released.
  std::unique_lock<std::mutex> lock{mutex_};
  dropped.swap(entries_);
  lru_.clear();
  resident_bytes_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  convoy_waits_.store(0, std::memory_order_relaxed);
  l2_hits_.store(0, std::memory_order_relaxed);
  l2_stores_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace hybridic::apps
