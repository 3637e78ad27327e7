#include "store/store.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/text.hpp"

namespace hybridic::store {

namespace fs = std::filesystem;

constexpr const char* kMagic = "hybridic-store 1";

Store::Store(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(fs::path{root_} / "objects", ec);
  if (!ec) {
    fs::create_directories(fs::path{root_} / "tmp", ec);
  }
  if (ec) {
    throw StoreError{"cannot create store directories under '" + root_ +
                     "': " + ec.message()};
  }
}

std::string Store::object_name(const std::string& key) {
  // Two independent FNV passes finalized with splitmix64 give a 128-bit
  // address; the embedded-key check on read makes even a collision safe.
  const std::uint64_t h1 = util::splitmix64(fnv1a64(key));
  const std::uint64_t h2 =
      util::splitmix64(fnv1a64(key, 0x84222325cbf29ce4ULL));
  return util::hex16(h1) + util::hex16(h2);
}

std::string Store::object_path(const std::string& key) const {
  const std::string name = object_name(key);
  return (fs::path{root_} / "objects" / name.substr(0, 2) / name).string();
}

void Store::put(const std::string& key, const std::string& payload) {
  // Entry layout (all line-oriented except the raw payload bytes):
  //   hybridic-store 1
  //   rev <engine revision>
  //   key <key length>
  //   <key bytes>
  //   len <payload length>
  //   <payload bytes>
  //   sum <16-hex FNV-1a of payload>
  std::ostringstream blob;
  blob << kMagic << '\n'
       << "rev " << kEngineRevision << '\n'
       << "key " << key.size() << '\n'
       << key << '\n'
       << "len " << payload.size() << '\n'
       << payload << '\n'
       << "sum " << util::hex16(fnv1a64(payload)) << '\n';
  const std::string bytes = blob.str();

  const std::string name = object_name(key);
  const fs::path tmp =
      fs::path{root_} / "tmp" /
      (name + "." + std::to_string(::getpid()) + "." +
       std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ignore;
      fs::remove(tmp, ignore);
      throw StoreError{"cannot write store entry '" + tmp.string() + "'"};
    }
  }
  const fs::path final_path = fs::path{object_path(key)};
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  if (!ec) {
    // rename(2): atomic publication; a concurrent same-key writer wrote
    // identical bytes, so whichever rename lands last is equivalent.
    fs::rename(tmp, final_path, ec);
  }
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw StoreError{"cannot publish store entry for key '" + key +
                     "': " + ec.message()};
  }
  puts_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::string> Store::get(const std::string& key) const {
  std::string blob;
  {
    std::ifstream in{object_path(key), std::ios::binary};
    if (!in.is_open()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    blob = buffer.str();
  }

  const auto damaged = [this]() -> std::optional<std::string> {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };

  util::LineReader reader{blob};
  std::string rest;
  std::uint64_t rev = 0;
  if (!reader.take_exact(kMagic) || !reader.take_tagged("rev", rest) ||
      !util::parse_u64(rest, rev)) {
    return damaged();
  }
  if (rev != kEngineRevision) {
    // A valid entry from another engine revision: stale, not corrupt.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::string stored_key;
  std::string payload;
  if (!reader.take_sized("key", stored_key) || stored_key != key) {
    return damaged();  // Truncated, or a different key hashed here.
  }
  if (!reader.take_sized("len", payload) ||
      !reader.take_tagged("sum", rest) ||
      rest != util::hex16(fnv1a64(payload)) || !reader.at_end()) {
    return damaged();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return payload;
}

StoreStats Store::stats() const {
  StoreStats s;
  s.puts = puts_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.corrupt_entries = corrupt_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hybridic::store
