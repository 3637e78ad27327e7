#include "store/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/text.hpp"

namespace hybridic::store {

namespace fs = std::filesystem;

namespace {

// Line format (one record per line, space-separated):
//   J1 <fingerprint 16 hex> <sum 16 hex> <key> <escaped payload>
// where sum = fnv1a64(fingerprint + '\0' + key + '\0' + raw payload)
// and the payload escapes '\\' -> "\\\\", '\n' -> "\\n", '\r' -> "\\r".
constexpr const char* kMagic = "J1";

std::string escape_payload(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool unescape_payload(const std::string& escaped, std::string& raw) {
  raw.clear();
  raw.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      raw += c;
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return false;  // Trailing backslash: torn escape sequence.
    }
    switch (escaped[++i]) {
      case '\\':
        raw += '\\';
        break;
      case 'n':
        raw += '\n';
        break;
      case 'r':
        raw += '\r';
        break;
      default:
        return false;
    }
  }
  return true;
}

std::uint64_t record_sum(const std::string& fingerprint,
                         const std::string& key,
                         const std::string& payload) {
  std::string material;
  material.reserve(fingerprint.size() + key.size() + payload.size() + 2);
  material += fingerprint;
  material += '\0';
  material += key;
  material += '\0';
  material += payload;
  return fnv1a64(material);
}

bool line_safe(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\n' || c == '\r') {
      return false;
    }
  }
  return !text.empty();
}

}  // namespace

Journal::Journal(std::string path) : path_(std::move(path)) {
  const fs::path parent = fs::path{path_}.parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (ec) {
      throw StoreError{"cannot create journal directory '" +
                       parent.string() + "': " + ec.message()};
    }
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw StoreError{"cannot open journal '" + path_ + "' for appending"};
  }
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Journal::append(const std::string& fingerprint, const std::string& key,
                     const std::string& payload) {
  if (!line_safe(fingerprint) || !line_safe(key)) {
    throw StoreError{"journal fingerprint/key must be non-empty and free of "
                     "spaces and newlines: '" +
                     fingerprint + "' / '" + key + "'"};
  }
  std::string line;
  line.reserve(payload.size() + key.size() + 64);
  line += kMagic;
  line += ' ';
  line += fingerprint;
  line += ' ';
  line += util::hex16(record_sum(fingerprint, key, payload));
  line += ' ';
  line += key;
  line += ' ';
  line += escape_payload(payload);
  line += '\n';

  // One write(2) on an O_APPEND fd: the kernel serializes the offset, so
  // a crash tears at most this line, and concurrent appenders (other
  // threads or a sharded sibling process) never interleave mid-line.
  std::lock_guard<std::mutex> lock{write_mutex_};
  const ssize_t written =
      ::write(fd_, line.data(), line.size());
  if (written != static_cast<ssize_t>(line.size())) {
    throw StoreError{"journal append to '" + path_ + "' failed"};
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
}

Journal::ReadResult Journal::read(const std::string& path) {
  ReadResult result;
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open()) {
    return result;  // Missing ledger == empty ledger.
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    // "J1 <fp> <sum> <key> <payload>" — 4 spaces minimum; anything that
    // fails shape, escaping, or checksum is damage, counted and skipped.
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos || line.compare(0, sp1, kMagic) != 0) {
      ++result.skipped_lines;
      continue;
    }
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    const std::size_t sp3 =
        sp2 == std::string::npos ? std::string::npos : line.find(' ', sp2 + 1);
    const std::size_t sp4 =
        sp3 == std::string::npos ? std::string::npos : line.find(' ', sp3 + 1);
    if (sp4 == std::string::npos) {
      ++result.skipped_lines;
      continue;
    }
    Entry entry;
    entry.fingerprint = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string sum_text = line.substr(sp2 + 1, sp3 - sp2 - 1);
    entry.key = line.substr(sp3 + 1, sp4 - sp3 - 1);
    std::uint64_t sum = 0;
    if (entry.fingerprint.empty() || entry.key.empty() ||
        !util::parse_hex16(sum_text, sum) ||
        !unescape_payload(line.substr(sp4 + 1), entry.payload)) {
      ++result.skipped_lines;
      continue;
    }
    if (sum != record_sum(entry.fingerprint, entry.key, entry.payload)) {
      ++result.skipped_lines;
      continue;
    }
    result.entries.push_back(std::move(entry));
  }
  // A torn final line (no trailing newline) still reaches the loop via
  // getline's EOF path; a truncated payload fails its checksum there,
  // while a tear that lost only the newline left a complete record.
  return result;
}

}  // namespace hybridic::store
