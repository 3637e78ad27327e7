// hybench speed probe: a fixed piece of CPU work whose time tracks how
// fast the host is running this machine's CPUs right now. run.py runs it
// between the passes of a workload and scales the pass timings by it, so a
// slow minute of the host does not read as slow code (see README.md,
// "Host-speed normalisation"). Each unit is timed in the thread's CPU time,
// which leaves out time the hypervisor gave to other guests (steal) and
// time other threads of this machine held the CPU.
//
// run.py compiles this file itself with fixed flags, outside the
// repository's CMake project, so no change to the programs under test or to
// their build can change the probe.
//
//   speed_probe UNITS    runs UNITS units; prints each unit's CPU seconds
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

namespace {

double thread_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One unit of work, half of it memory-bound and half register-bound, as
/// the programs under test mix the two: random read-modify-writes over a
/// 4 MiB table, hash-map inserts and lookups (allocation and pointer
/// chasing) and a sort, then a dependent integer and floating-point chain.
/// Scaled by the two halves together, the programs' pass times varied no
/// more than when scaled by either half alone. Returns a checksum so none
/// of it is optimised away.
std::uint64_t unit(std::vector<std::uint32_t>& table, std::uint64_t x) {
  std::uint64_t sum = 0;
  const std::size_t mask = table.size() - 1;
  for (int i = 0; i < 400'000; ++i) {
    const std::uint64_t r = next(x);
    table[r & mask] += static_cast<std::uint32_t>(r >> 32);
    sum += table[(r >> 24) & mask];
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 30'000; ++i) {
    map[next(x) & 0xFFFFF] += static_cast<std::uint64_t>(i);
  }
  for (int i = 0; i < 30'000; ++i) {
    const auto it = map.find(next(x) & 0xFFFFF);
    sum += it == map.end() ? 1 : it->second;
  }
  std::vector<std::uint64_t> keys(40'000);
  for (std::uint64_t& key : keys) {
    key = next(x);
  }
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];
  double v = 1.0;
  for (int i = 0; i < 1'500'000; ++i) {
    sum += (next(x) * 0x9E3779B97F4A7C15ULL) >> 7;
    v = v * 1.0000001 + 1e-9 / v;
  }
  return sum + static_cast<std::uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  const int units = argc > 1 ? std::atoi(argv[1]) : 1;
  std::vector<std::uint32_t> table(1 << 20);
  std::uint64_t checksum = 0;
  for (int i = 0; i < units; ++i) {
    const double start = thread_cpu_s();
    checksum += unit(table, 0x9E3779B97F4A7C15ULL + static_cast<unsigned>(i));
    std::printf("%.9f\n", thread_cpu_s() - start);
  }
  std::fprintf(stderr, "checksum %llu\n",
               static_cast<unsigned long long>(checksum));
  return 0;
}
