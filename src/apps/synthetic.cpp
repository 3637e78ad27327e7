#include "apps/synthetic.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "prof/quad.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {

void validate_synthetic_config(const SyntheticConfig& cfg) {
  const auto probability = [](double p, const char* field) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw ConfigError{std::string{"SyntheticConfig."} + field +
                        " must be in [0, 1], got " + std::to_string(p)};
    }
  };
  require(cfg.kernel_count >= 1,
          "SyntheticConfig.kernel_count must be >= 1, got 0");
  require(cfg.min_edge_bytes >= 1,
          "SyntheticConfig.min_edge_bytes must be >= 1, got 0");
  if (cfg.min_edge_bytes > cfg.max_edge_bytes) {
    throw ConfigError{"SyntheticConfig.min_edge_bytes (" +
                      std::to_string(cfg.min_edge_bytes) +
                      ") must not exceed max_edge_bytes (" +
                      std::to_string(cfg.max_edge_bytes) + ")"};
  }
  if (cfg.max_edge_bytes > kMaxEdgeBytes) {
    throw ConfigError{"SyntheticConfig.max_edge_bytes must be <= " +
                      std::to_string(kMaxEdgeBytes) + ", got " +
                      std::to_string(cfg.max_edge_bytes)};
  }
  if (cfg.min_work_units > cfg.max_work_units) {
    throw ConfigError{"SyntheticConfig.min_work_units (" +
                      std::to_string(cfg.min_work_units) +
                      ") must not exceed max_work_units (" +
                      std::to_string(cfg.max_work_units) + ")"};
  }
  probability(cfg.kernel_edge_probability, "kernel_edge_probability");
  probability(cfg.duplicable_probability, "duplicable_probability");
  probability(cfg.streaming_probability, "streaming_probability");
  require(cfg.board_count >= 1,
          "SyntheticConfig.board_count must be >= 1, got 0");
  if (cfg.board_topology != "chain" && cfg.board_topology != "ring" &&
      cfg.board_topology != "mesh") {
    throw ConfigError{
        "SyntheticConfig.board_topology must be chain, ring or mesh, got '" +
        cfg.board_topology + "'"};
  }
}

ProfiledApp make_synthetic_app(const SyntheticConfig& cfg) {
  validate_synthetic_config(cfg);
  ProfiledApp app;
  app.name = "synthetic-" + std::to_string(cfg.seed);
  app.profiler =
      std::make_unique<prof::QuadProfiler>(prof::ProfileMode::kDeferred);
  prof::QuadProfiler& q = *app.profiler;
  Rng rng{cfg.seed};

  const std::uint32_t k = cfg.kernel_count;

  // Function ids in program order: source, kernels, sink.
  const auto fn_source = q.declare("source");
  std::vector<prof::FunctionId> kernel_fn(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    kernel_fn[i] = q.declare("kernel" + std::to_string(i));
  }
  const auto fn_sink = q.declare("sink");

  // Random DAG over kernels: edge i -> j for i < j.
  std::vector<std::vector<std::uint64_t>> edge_bytes(
      k, std::vector<std::uint64_t>(k, 0));
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      if (rng.chance(cfg.kernel_edge_probability)) {
        edge_bytes[i][j] =
            rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
      }
    }
  }

  // Host input bytes: kernels without kernel predecessors always get host
  // input; others get some with probability 1/2.
  std::vector<std::uint64_t> host_in(k, 0);
  for (std::uint32_t j = 0; j < k; ++j) {
    bool has_kernel_input = false;
    for (std::uint32_t i = 0; i < j; ++i) {
      has_kernel_input |= edge_bytes[i][j] != 0;
    }
    if (!has_kernel_input || rng.chance(0.5)) {
      host_in[j] = rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
    }
  }

  // Output buffer of each kernel must cover its largest outgoing edge plus
  // the sink read for terminal kernels.
  std::vector<std::uint64_t> out_size(k, 0);
  std::vector<bool> terminal(k, true);
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      out_size[i] = std::max(out_size[i], edge_bytes[i][j]);
      if (edge_bytes[i][j] != 0) {
        terminal[i] = false;
      }
    }
    if (terminal[i] || rng.chance(0.3)) {
      out_size[i] = std::max(
          out_size[i], rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes));
      terminal[i] = true;  // Sink will read this kernel's output.
    }
    out_size[i] = std::max<std::uint64_t>(out_size[i], 64);
  }

  const std::uint64_t source_size =
      *std::max_element(host_in.begin(), host_in.end()) + 64;

  // Only addresses are profiled, so each buffer is a reserved address
  // range with no payload behind it, aligned as TrackedBuffer<uint8_t>
  // aligns its own.
  const std::uint64_t source_base = q.allocate(source_size, 8);
  std::vector<std::uint64_t> out_base(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    out_base[i] = q.allocate(out_size[i], 8);
  }

  // ---- source (host): publish input data. ----
  {
    prof::ScopedFunction scope{q, fn_source};
    // The generator advances as if one payload byte were drawn per
    // element, so every later draw is unchanged.
    rng.discard(source_size);
    q.record_write(source_base, source_size);
    q.add_work(source_size / 8);
  }

  // ---- kernels in topological (index) order. ----
  std::vector<std::uint64_t> work(k);
  for (std::uint32_t j = 0; j < k; ++j) {
    prof::ScopedFunction scope{q, kernel_fn[j]};
    if (host_in[j] != 0) {
      require(host_in[j] <= source_size, "host input past the source buffer");
      q.record_read(source_base, host_in[j]);
    }
    for (std::uint32_t i = 0; i < j; ++i) {
      if (edge_bytes[i][j] != 0) {
        require(edge_bytes[i][j] <= out_size[i],
                "kernel edge past its producer's output buffer");
        q.record_read(out_base[i], edge_bytes[i][j]);
      }
    }
    rng.discard(out_size[j]);
    q.record_write(out_base[j], out_size[j]);
    work[j] = rng.between(cfg.min_work_units, cfg.max_work_units);
    q.add_work(work[j]);
  }

  // ---- sink (host): consume terminal outputs. ----
  {
    prof::ScopedFunction scope{q, fn_sink};
    for (std::uint32_t i = 0; i < k; ++i) {
      if (terminal[i]) {
        q.record_read(out_base[i], out_size[i]);
      }
    }
    q.add_work(256);
  }

  // Calibration.
  app.calibration.push_back(
      sys::CalibrationEntry{"source", 4.0, 0.0, 0, 0, false, false, false});
  for (std::uint32_t i = 0; i < k; ++i) {
    sys::CalibrationEntry entry;
    entry.function = "kernel" + std::to_string(i);
    entry.host_cycles_per_work_unit = 8.0 + rng.uniform() * 10.0;
    entry.kernel_cycles_per_work_unit = 0.5 + rng.uniform() * 2.0;
    entry.area_luts = static_cast<std::uint32_t>(rng.between(800, 6000));
    entry.area_regs = static_cast<std::uint32_t>(rng.between(800, 8000));
    entry.is_kernel = true;
    entry.duplicable = rng.chance(cfg.duplicable_probability);
    entry.streaming = rng.chance(cfg.streaming_probability);
    app.calibration.push_back(entry);
  }
  app.calibration.push_back(
      sys::CalibrationEntry{"sink", 4.0, 0.0, 0, 0, false, false, false});

  app.verified = true;
  app.verification_note = "synthetic dataflow (no functional semantics)";
  q.seal();
  return app;
}

}  // namespace hybridic::apps
