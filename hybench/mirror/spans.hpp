// Host-time span recorder for the traced mirror. Each thread appends to
// its own buffer (no locking on the hot path); a span records its name,
// start, end, parent span and request id. Spans stay in memory until the
// run ends, then feed the per-layer summary and a Chrome-trace file.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hybench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint32_t thread = 0;
  std::string request;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Recorder {
public:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< Indices of unfinished spans.
    std::string request;
  };

  static Recorder& instance() {
    static Recorder recorder;
    return recorder;
  }

  ThreadBuffer& local() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffer = buffers_.back().get();
      buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    }
    return *buffer;
  }

  std::uint64_t next_id() {
    return last_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Every finished span of every thread. Call once all workers are idle.
  [[nodiscard]] std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> last_id_{0};
};

/// RAII span: opens on construction, closes on destruction. Nested scopes
/// on one thread become parent and child.
class Scope {
public:
  explicit Scope(const char* name) : buffer_(Recorder::instance().local()) {
    Span span;
    span.name = name;
    span.id = Recorder::instance().next_id();
    span.parent = buffer_.open.empty()
                      ? 0
                      : buffer_.spans[buffer_.open.back()].id;
    span.thread = buffer_.thread;
    span.request = buffer_.request;
    span.start_ns = now_ns();
    buffer_.open.push_back(buffer_.spans.size());
    buffer_.spans.push_back(std::move(span));
  }
  ~Scope() {
    buffer_.spans[buffer_.open.back()].end_ns = now_ns();
    buffer_.open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Recorder::ThreadBuffer& buffer_;
};

/// Tags every span opened on this thread while alive with `request`.
class RequestTag {
public:
  explicit RequestTag(std::string request)
      : buffer_(Recorder::instance().local()) {
    previous_ = std::move(buffer_.request);
    buffer_.request = std::move(request);
  }
  ~RequestTag() { buffer_.request = std::move(previous_); }
  RequestTag(const RequestTag&) = delete;
  RequestTag& operator=(const RequestTag&) = delete;

private:
  Recorder::ThreadBuffer& buffer_;
  std::string previous_;
};

/// Per-name aggregate: call count, summed self time, per-call durations.
struct SpanStats {
  std::uint64_t calls = 0;
  double self_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<double> durations_seconds;

  /// Nearest-rank percentile of the per-call durations, in seconds.
  [[nodiscard]] double percentile(double q) const {
    if (durations_seconds.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = durations_seconds;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
};

inline double seconds(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

/// Self time of every span, by id: its duration minus its children's.
inline std::map<std::uint64_t, double> self_seconds_by_id(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, double> self;
  for (const Span& span : spans) {
    self[span.id] += seconds(span);
    if (span.parent != 0) {
      self[span.parent] -= seconds(span);
    }
  }
  return self;
}

inline std::map<std::string, SpanStats> summarize(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, double> self = self_seconds_by_id(spans);
  std::map<std::string, SpanStats> stats;
  for (const Span& span : spans) {
    SpanStats& s = stats[span.name];
    ++s.calls;
    s.total_seconds += seconds(span);
    s.self_seconds += self[span.id];
    s.durations_seconds.push_back(seconds(span));
  }
  return stats;
}

/// Chrome-trace ("X" complete events, microseconds) of every span.
inline void write_chrome_trace(const std::vector<Span>& spans,
                               std::ostream& out) {
  std::uint64_t origin = UINT64_MAX;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) * 1e-3
        << ",\"dur\":"
        << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":\"" << span.request << "\"}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace hybench
