#include "apps/canny.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "prof/tracked.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {

namespace {

using prof::QuadProfiler;
using prof::ScopedFunction;
using prof::TrackedBuffer;

constexpr float kPi = 3.14159265358979F;

/// Synthetic test frame: smooth background + high-contrast shapes so the
/// detector has real edges to find.
void load_image(QuadProfiler& q, prof::FunctionId fn,
                TrackedBuffer<float>& image, const CannyConfig& cfg) {
  ScopedFunction scope{q, fn};
  Rng rng{cfg.seed};
  const auto w = cfg.width;
  const auto h = cfg.height;
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      float value = 40.0F + 30.0F * std::sin(static_cast<float>(x) * 0.05F) +
                    20.0F * std::cos(static_cast<float>(y) * 0.07F);
      // A bright rectangle and a disc create strong step edges.
      if (x > w / 4 && x < w / 2 && y > h / 4 && y < h / 2) {
        value = 220.0F;
      }
      const float dx = static_cast<float>(x) - 0.75F * static_cast<float>(w);
      const float dy = static_cast<float>(y) - 0.6F * static_cast<float>(h);
      if (dx * dx + dy * dy < static_cast<float>(h * h) / 16.0F) {
        value = 15.0F;
      }
      value += static_cast<float>(rng.uniform()) * 2.0F;  // sensor noise
      image.set(y * w + x, value);
      q.add_work(2);
    }
  }
}

/// 5x5 Gaussian via two separable 1D passes (σ≈1.4).
void gaussian_blur(QuadProfiler& q, prof::FunctionId fn,
                   const TrackedBuffer<float>& in, TrackedBuffer<float>& tmp,
                   TrackedBuffer<float>& out, std::uint32_t w,
                   std::uint32_t h) {
  ScopedFunction scope{q, fn};
  constexpr float kKernel[5] = {0.0545F, 0.2442F, 0.4026F, 0.2442F, 0.0545F};
  const auto clamp = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      float acc = 0.0F;
      for (int k = -2; k <= 2; ++k) {
        const auto xx = static_cast<std::uint32_t>(
            clamp(static_cast<std::int64_t>(x) + k, 0, w - 1));
        acc += kKernel[k + 2] * in.get(y * w + xx);
      }
      tmp.set(y * w + x, acc);
      q.add_work(5);
    }
  }
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      float acc = 0.0F;
      for (int k = -2; k <= 2; ++k) {
        const auto yy = static_cast<std::uint32_t>(
            clamp(static_cast<std::int64_t>(y) + k, 0, h - 1));
        acc += kKernel[k + 2] * tmp.get(yy * w + x);
      }
      out.set(y * w + x, acc);
      q.add_work(5);
    }
  }
}

/// 3x3 Sobel; emits magnitude and quantized direction (0/45/90/135).
void sobel_gradient(QuadProfiler& q, prof::FunctionId fn,
                    const TrackedBuffer<float>& in,
                    TrackedBuffer<float>& magnitude,
                    TrackedBuffer<std::uint8_t>& direction, std::uint32_t w,
                    std::uint32_t h) {
  ScopedFunction scope{q, fn};
  for (std::uint32_t y = 1; y + 1 < h; ++y) {
    for (std::uint32_t x = 1; x + 1 < w; ++x) {
      const float p00 = in.get((y - 1) * w + (x - 1));
      const float p01 = in.get((y - 1) * w + x);
      const float p02 = in.get((y - 1) * w + (x + 1));
      const float p10 = in.get(y * w + (x - 1));
      const float p12 = in.get(y * w + (x + 1));
      const float p20 = in.get((y + 1) * w + (x - 1));
      const float p21 = in.get((y + 1) * w + x);
      const float p22 = in.get((y + 1) * w + (x + 1));
      const float gx = (p02 + 2.0F * p12 + p22) - (p00 + 2.0F * p10 + p20);
      const float gy = (p20 + 2.0F * p21 + p22) - (p00 + 2.0F * p01 + p02);
      magnitude.set(y * w + x, std::sqrt(gx * gx + gy * gy));
      float angle = std::atan2(gy, gx) * 180.0F / kPi;
      if (angle < 0.0F) {
        angle += 180.0F;
      }
      std::uint8_t bucket = 0;
      if (angle >= 22.5F && angle < 67.5F) {
        bucket = 1;
      } else if (angle >= 67.5F && angle < 112.5F) {
        bucket = 2;
      } else if (angle >= 112.5F && angle < 157.5F) {
        bucket = 3;
      }
      direction.set(y * w + x, bucket);
      q.add_work(14);
    }
  }
}

/// Suppress non-maxima along the quantized gradient direction.
void non_max_suppression(QuadProfiler& q, prof::FunctionId fn,
                         const TrackedBuffer<float>& magnitude,
                         const TrackedBuffer<std::uint8_t>& direction,
                         TrackedBuffer<float>& thin, std::uint32_t w,
                         std::uint32_t h) {
  ScopedFunction scope{q, fn};
  for (std::uint32_t y = 1; y + 1 < h; ++y) {
    for (std::uint32_t x = 1; x + 1 < w; ++x) {
      const float m = magnitude.get(y * w + x);
      const std::uint8_t d = direction.get(y * w + x);
      float a = 0.0F;
      float b = 0.0F;
      switch (d) {
        case 0:  // horizontal gradient -> compare left/right
          a = magnitude.get(y * w + (x - 1));
          b = magnitude.get(y * w + (x + 1));
          break;
        case 1:  // 45 degrees
          a = magnitude.get((y - 1) * w + (x + 1));
          b = magnitude.get((y + 1) * w + (x - 1));
          break;
        case 2:  // vertical
          a = magnitude.get((y - 1) * w + x);
          b = magnitude.get((y + 1) * w + x);
          break;
        default:  // 135 degrees
          a = magnitude.get((y - 1) * w + (x - 1));
          b = magnitude.get((y + 1) * w + (x + 1));
          break;
      }
      thin.set(y * w + x, (m >= a && m >= b) ? m : 0.0F);
      q.add_work(6);
    }
  }
}

/// Double threshold + edge tracking by flood fill from strong pixels.
void hysteresis(QuadProfiler& q, prof::FunctionId fn,
                const TrackedBuffer<float>& thin,
                TrackedBuffer<std::uint8_t>& edges, const CannyConfig& cfg) {
  ScopedFunction scope{q, fn};
  const auto w = cfg.width;
  const auto h = cfg.height;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t i = 0; i < w * h; ++i) {
    const float m = thin.get(i);
    std::uint8_t label = 0;
    if (m >= cfg.high_threshold) {
      label = 2;  // strong
      stack.push_back(i);
    } else if (m >= cfg.low_threshold) {
      label = 1;  // weak
    }
    edges.set(i, label);
    q.add_work(3);
  }
  // Promote weak pixels connected to strong ones.
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    const std::uint32_t x = i % w;
    const std::uint32_t y = i / w;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) {
          continue;
        }
        const std::int64_t nx = static_cast<std::int64_t>(x) + dx;
        const std::int64_t ny = static_cast<std::int64_t>(y) + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<std::int64_t>(w) ||
            ny >= static_cast<std::int64_t>(h)) {
          continue;
        }
        const std::uint32_t ni =
            static_cast<std::uint32_t>(ny) * w + static_cast<std::uint32_t>(nx);
        if (edges.get(ni) == 1) {
          edges.set(ni, 2);
          stack.push_back(ni);
        }
        q.add_work(1);
      }
    }
  }
  // Demote unconnected weak pixels.
  for (std::uint32_t i = 0; i < w * h; ++i) {
    if (edges.get(i) == 1) {
      edges.set(i, 0);
    }
    q.add_work(1);
  }
}

/// Host-side consumer: compact the edge map into a run-length summary.
std::uint64_t store_edges(QuadProfiler& q, prof::FunctionId fn,
                          const TrackedBuffer<std::uint8_t>& edges,
                          std::uint32_t count) {
  ScopedFunction scope{q, fn};
  std::uint64_t edge_pixels = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (edges.get(i) == 2) {
      ++edge_pixels;
    }
    q.add_work(1);
  }
  return edge_pixels;
}

}  // namespace

ProfiledApp run_canny(const CannyConfig& cfg) {
  ProfiledApp app;
  app.name = "canny";
  app.profiler = std::make_unique<QuadProfiler>(prof::ProfileMode::kDeferred);
  QuadProfiler& q = *app.profiler;

  // Declaration order == program order (build_schedule relies on it).
  const auto fn_load = q.declare("load_image");
  const auto fn_blur = q.declare("gaussian_blur");
  const auto fn_sobel = q.declare("sobel_gradient");
  const auto fn_nms = q.declare("non_max_suppression");
  const auto fn_hyst = q.declare("hysteresis");
  const auto fn_store = q.declare("store_edges");

  const std::uint32_t w = cfg.width;
  const std::uint32_t h = cfg.height;
  const std::size_t n = static_cast<std::size_t>(w) * h;

  TrackedBuffer<float> image{q, "image", n};
  TrackedBuffer<float> blur_tmp{q, "blur_tmp", n};
  TrackedBuffer<float> blurred{q, "blurred", n};
  TrackedBuffer<float> magnitude{q, "magnitude", n};
  TrackedBuffer<std::uint8_t> direction{q, "direction", n};
  TrackedBuffer<float> thin{q, "thin", n};
  TrackedBuffer<std::uint8_t> edges{q, "edges", n};

  load_image(q, fn_load, image, cfg);
  gaussian_blur(q, fn_blur, image, blur_tmp, blurred, w, h);
  sobel_gradient(q, fn_sobel, blurred, magnitude, direction, w, h);
  non_max_suppression(q, fn_nms, magnitude, direction, thin, w, h);
  hysteresis(q, fn_hyst, thin, edges, cfg);
  const std::uint64_t edge_pixels =
      store_edges(q, fn_store, edges, w * h);

  // Functional self-check: the synthetic shapes must produce a plausible
  // number of edge pixels, and every surviving pixel must be 'strong'.
  bool all_strong = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t v = edges.peek(i);
    if (v != 0 && v != 2) {
      all_strong = false;
    }
  }
  const double edge_fraction =
      static_cast<double>(edge_pixels) / static_cast<double>(n);
  app.verified =
      all_strong && edge_fraction > 0.005 && edge_fraction < 0.25;
  app.verification_note =
      "edge pixels: " + std::to_string(edge_pixels) + " (" +
      std::to_string(edge_fraction * 100.0) + "% of frame)";

  // Calibration: cycles-per-work-unit constants (see EXPERIMENTS.md,
  // "Calibration"). Kernel areas approximate DWARV-generated cores on the
  // xc5vfx130t at the paper's scale.
  app.calibration = {
      {"load_image", 6.14, 0.0, 0, 0, false, false, false},
      {"gaussian_blur", 5.66, 0.330, 1900, 2900, true, false, true},
      {"sobel_gradient", 6.47, 0.347, 2100, 3200, true, false, true},
      {"non_max_suppression", 5.26, 0.315, 1300, 1900, true, false, true},
      {"hysteresis", 4.85, 0.363, 1578, 2500, true, false, false},
      {"store_edges", 4.06, 0.0, 0, 0, false, false, false},
  };
  app.environment.base_infrastructure = core::Resources{2000, 2019};
  q.seal();
  return app;
}

}  // namespace hybridic::apps
