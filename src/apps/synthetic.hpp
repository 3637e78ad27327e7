// Synthetic application generator: random communication graphs + kernel
// specs for property tests and ablation sweeps that need many application
// shapes beyond the paper's four.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/app.hpp"

namespace hybridic::apps {

struct SyntheticConfig {
  std::uint32_t kernel_count = 6;
  std::uint32_t host_function_count = 2;
  double kernel_edge_probability = 0.35;  ///< Kernel->kernel edges.
  std::uint64_t min_edge_bytes = 1024;
  std::uint64_t max_edge_bytes = 64 * 1024;
  std::uint64_t min_work_units = 5'000;
  std::uint64_t max_work_units = 200'000;
  double duplicable_probability = 0.25;
  double streaming_probability = 0.5;
  std::uint64_t seed = 1;

  // ---- Evaluation platform, not profile identity. Profiling is
  // platform-independent, so these never enter ProfileCache::synthetic_key:
  // designs over 1 or 4 boards share one profiled app.
  std::uint32_t board_count = 1;
  std::string board_topology = "chain";  ///< chain | ring | mesh.
};

/// The largest max_edge_bytes a config may ask for (4 GiB), far above any
/// sweep's edges; it bounds the address runs a synthetic design records.
inline constexpr std::uint64_t kMaxEdgeBytes = 1ULL << 32;

/// Validate `config` bounds: kernel_count >= 1, min <= max for edge bytes
/// and work units, max_edge_bytes <= kMaxEdgeBytes, all probabilities in
/// [0, 1], and non-zero edge bytes (kernels must be able to communicate).
/// Throws ConfigError naming the offending field.
void validate_synthetic_config(const SyntheticConfig& config);

/// Generate a synthetic profiled application. The generated dataflow's
/// buffer accesses are recorded as address runs (whole-buffer reads and
/// writes, with no payload behind them) through the real QuadProfiler, so
/// every invariant the profiler guarantees also holds here. Acyclic by
/// construction: function i only feeds functions j > i. Throws
/// ConfigError (via validate_synthetic_config) on out-of-bounds configs.
[[nodiscard]] ProfiledApp make_synthetic_app(const SyntheticConfig& config);

}  // namespace hybridic::apps
