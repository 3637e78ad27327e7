#include "apps/klt.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "prof/tracked.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {

namespace {

using prof::QuadProfiler;
using prof::ScopedFunction;
using prof::TrackedBuffer;

/// Smooth random texture with enough corners to track, sampled at
/// arbitrary (sub-pixel) positions so frame 2 can be an exact shift.
class Texture {
public:
  explicit Texture(std::uint64_t seed) : rng_(seed) {
    for (auto& k : waves_) {
      k = {rng_.uniform() * 0.35 + 0.02, rng_.uniform() * 0.35 + 0.02,
           rng_.uniform() * 6.28, rng_.uniform() * 70.0 + 10.0};
    }
  }

  [[nodiscard]] float sample(float x, float y) const {
    double v = 120.0;
    for (const auto& k : waves_) {
      v += k.amplitude * std::sin(k.fx * x + k.fy * y + k.phase);
    }
    return static_cast<float>(v < 0.0 ? 0.0 : (v > 255.0 ? 255.0 : v));
  }

private:
  struct Wave {
    double fx, fy, phase, amplitude;
  };
  Rng rng_;
  Wave waves_[9] = {};
};

void load_frames(QuadProfiler& q, prof::FunctionId fn,
                 TrackedBuffer<float>& frame1, TrackedBuffer<float>& frame2,
                 const KltConfig& cfg) {
  ScopedFunction scope{q, fn};
  Texture texture{cfg.seed};
  for (std::uint32_t y = 0; y < cfg.height; ++y) {
    for (std::uint32_t x = 0; x < cfg.width; ++x) {
      frame1.set(y * cfg.width + x,
                 texture.sample(static_cast<float>(x),
                                static_cast<float>(y)));
      frame2.set(y * cfg.width + x,
                 texture.sample(static_cast<float>(x) + cfg.shift_x,
                                static_cast<float>(y) + cfg.shift_y));
      q.add_work(6);
    }
  }
}

void compute_gradients(QuadProfiler& q, prof::FunctionId fn,
                       const TrackedBuffer<float>& frame,
                       TrackedBuffer<float>& ix, TrackedBuffer<float>& iy,
                       std::uint32_t w, std::uint32_t h) {
  ScopedFunction scope{q, fn};
  for (std::uint32_t y = 1; y + 1 < h; ++y) {
    for (std::uint32_t x = 1; x + 1 < w; ++x) {
      ix.set(y * w + x,
             0.5F * (frame.get(y * w + x + 1) - frame.get(y * w + x - 1)));
      iy.set(y * w + x,
             0.5F * (frame.get((y + 1) * w + x) - frame.get((y - 1) * w + x)));
      q.add_work(4);
    }
  }
}

/// Shi-Tomasi min-eigenvalue response over 3x3 windows.
void corner_response(QuadProfiler& q, prof::FunctionId fn,
                     const TrackedBuffer<float>& ix,
                     const TrackedBuffer<float>& iy,
                     TrackedBuffer<float>& response, std::uint32_t w,
                     std::uint32_t h) {
  ScopedFunction scope{q, fn};
  for (std::uint32_t y = 2; y + 2 < h; ++y) {
    for (std::uint32_t x = 2; x + 2 < w; ++x) {
      float sxx = 0.0F;
      float syy = 0.0F;
      float sxy = 0.0F;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::uint32_t i =
              (y + static_cast<std::uint32_t>(dy)) * w +
              (x + static_cast<std::uint32_t>(dx));
          const float gx = ix.get(i);
          const float gy = iy.get(i);
          sxx += gx * gx;
          syy += gy * gy;
          sxy += gx * gy;
        }
      }
      const float trace = sxx + syy;
      const float det = sxx * syy - sxy * sxy;
      const float disc =
          std::sqrt(std::max(0.0F, trace * trace / 4.0F - det));
      response.set(y * w + x, trace / 2.0F - disc);  // min eigenvalue
      q.add_work(18);
    }
  }
}

void select_features(QuadProfiler& q, prof::FunctionId fn,
                     const TrackedBuffer<float>& response,
                     TrackedBuffer<float>& features, const KltConfig& cfg) {
  ScopedFunction scope{q, fn};
  const std::uint32_t w = cfg.width;
  const std::uint32_t h = cfg.height;
  struct Candidate {
    float score;
    std::uint32_t x, y;
  };
  std::vector<Candidate> candidates;
  const std::uint32_t margin = cfg.window_radius + 4;
  for (std::uint32_t y = margin; y + margin < h; ++y) {
    for (std::uint32_t x = margin; x + margin < w; ++x) {
      candidates.push_back(Candidate{response.get(y * w + x), x, y});
      q.add_work(1);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.score > b.score;
                   });
  std::uint32_t selected = 0;
  std::vector<Candidate> chosen;
  for (const Candidate& c : candidates) {
    if (selected == cfg.feature_count) {
      break;
    }
    bool too_close = false;
    for (const Candidate& other : chosen) {
      const float dx = static_cast<float>(c.x) - static_cast<float>(other.x);
      const float dy = static_cast<float>(c.y) - static_cast<float>(other.y);
      if (dx * dx + dy * dy < 64.0F) {
        too_close = true;
        break;
      }
    }
    q.add_work(2);
    if (too_close) {
      continue;
    }
    features.set(2 * selected, static_cast<float>(c.x));
    features.set(2 * selected + 1, static_cast<float>(c.y));
    chosen.push_back(c);
    ++selected;
  }
  // Pad with repeats of the best corner if the frame is corner-poor.
  for (; selected < cfg.feature_count; ++selected) {
    features.set(2 * selected, static_cast<float>(chosen.front().x));
    features.set(2 * selected + 1, static_cast<float>(chosen.front().y));
  }
}

/// Iterative Lucas-Kanade with bilinear sampling and in-window gradients.
void track_features(QuadProfiler& q, prof::FunctionId fn,
                    const TrackedBuffer<float>& frame1,
                    const TrackedBuffer<float>& frame2,
                    const TrackedBuffer<float>& features,
                    TrackedBuffer<float>& tracked, const KltConfig& cfg) {
  ScopedFunction scope{q, fn};
  const std::uint32_t w = cfg.width;
  const std::uint32_t h = cfg.height;
  const int r = static_cast<int>(cfg.window_radius);

  const auto bilinear = [&](const TrackedBuffer<float>& img, float x,
                            float y) {
    const int x0 = static_cast<int>(std::floor(x));
    const int y0 = static_cast<int>(std::floor(y));
    const float ax = x - static_cast<float>(x0);
    const float ay = y - static_cast<float>(y0);
    const auto clampi = [&](int v, int hi) {
      return v < 0 ? 0 : (v >= hi ? hi - 1 : v);
    };
    const auto at = [&](int xx, int yy) {
      return img.get(static_cast<std::uint32_t>(clampi(yy, static_cast<int>(h))) * w +
                     static_cast<std::uint32_t>(clampi(xx, static_cast<int>(w))));
    };
    return (1 - ax) * (1 - ay) * at(x0, y0) + ax * (1 - ay) * at(x0 + 1, y0) +
           (1 - ax) * ay * at(x0, y0 + 1) + ax * ay * at(x0 + 1, y0 + 1);
  };

  for (std::uint32_t f = 0; f < cfg.feature_count; ++f) {
    const float px = features.get(2 * f);
    const float py = features.get(2 * f + 1);
    float dx = 0.0F;
    float dy = 0.0F;
    for (std::uint32_t iter = 0; iter < cfg.iterations; ++iter) {
      float sxx = 0.0F;
      float syy = 0.0F;
      float sxy = 0.0F;
      float bx = 0.0F;
      float by = 0.0F;
      for (int wy = -r; wy <= r; ++wy) {
        for (int wx = -r; wx <= r; ++wx) {
          const float x1 = px + static_cast<float>(wx);
          const float y1 = py + static_cast<float>(wy);
          const float gx =
              0.5F * (bilinear(frame1, x1 + 1, y1) -
                      bilinear(frame1, x1 - 1, y1));
          const float gy =
              0.5F * (bilinear(frame1, x1, y1 + 1) -
                      bilinear(frame1, x1, y1 - 1));
          const float dt = bilinear(frame2, x1 + dx, y1 + dy) -
                           bilinear(frame1, x1, y1);
          sxx += gx * gx;
          syy += gy * gy;
          sxy += gx * gy;
          bx -= gx * dt;
          by -= gy * dt;
          q.add_work(22);
        }
      }
      const float det = sxx * syy - sxy * sxy;
      if (std::fabs(det) < 1e-6F) {
        break;
      }
      dx += (syy * bx - sxy * by) / det;
      dy += (sxx * by - sxy * bx) / det;
    }
    tracked.set(2 * f, px + dx);
    tracked.set(2 * f + 1, py + dy);
  }
}

}  // namespace

ProfiledApp run_klt(const KltConfig& cfg) {
  ProfiledApp app;
  app.name = "klt";
  app.profiler = std::make_unique<QuadProfiler>(prof::ProfileMode::kDeferred);
  QuadProfiler& q = *app.profiler;

  const auto fn_load = q.declare("load_frames");
  const auto fn_grad = q.declare("compute_gradients");
  const auto fn_corner = q.declare("corner_response");
  const auto fn_select = q.declare("select_features");
  const auto fn_track = q.declare("track_features");
  const auto fn_report = q.declare("report_tracks");

  const std::uint32_t w = cfg.width;
  const std::uint32_t h = cfg.height;
  const std::size_t n = static_cast<std::size_t>(w) * h;

  TrackedBuffer<float> frame1{q, "frame1", n};
  TrackedBuffer<float> frame2{q, "frame2", n};
  TrackedBuffer<float> ix{q, "ix", n};
  TrackedBuffer<float> iy{q, "iy", n};
  TrackedBuffer<float> response{q, "response", n};
  TrackedBuffer<float> features{q, "features", 2 * cfg.feature_count};
  TrackedBuffer<float> tracked{q, "tracked", 2 * cfg.feature_count};

  load_frames(q, fn_load, frame1, frame2, cfg);
  compute_gradients(q, fn_grad, frame1, ix, iy, w, h);
  corner_response(q, fn_corner, ix, iy, response, w, h);
  select_features(q, fn_select, response, features, cfg);
  track_features(q, fn_track, frame1, frame2, features, tracked, cfg);

  // report_tracks (host): consume results and measure the recovered shift.
  double median_dx = 0.0;
  double median_dy = 0.0;
  {
    ScopedFunction scope{q, fn_report};
    std::vector<double> dxs;
    std::vector<double> dys;
    for (std::uint32_t f = 0; f < cfg.feature_count; ++f) {
      dxs.push_back(tracked.get(2 * f) - features.peek(2 * f));
      dys.push_back(tracked.get(2 * f + 1) - features.peek(2 * f + 1));
      q.add_work(2);
    }
    const auto mid = static_cast<std::ptrdiff_t>(dxs.size() / 2);
    std::nth_element(dxs.begin(), dxs.begin() + mid, dxs.end());
    std::nth_element(dys.begin(), dys.begin() + mid, dys.end());
    median_dx = dxs[dxs.size() / 2];
    median_dy = dys[dys.size() / 2];
  }

  // The ground-truth displacement is frame2(x) = texture(x + shift), i.e.
  // features move by -shift in image coordinates... actually the feature
  // content at (x, y) in frame1 appears at (x - shift) in frame2.
  const double err_x = std::fabs(median_dx + cfg.shift_x);
  const double err_y = std::fabs(median_dy + cfg.shift_y);
  app.verified = err_x < 0.5 && err_y < 0.5;
  app.verification_note = "median track (" + std::to_string(median_dx) +
                          ", " + std::to_string(median_dy) +
                          "), expected (-" + std::to_string(cfg.shift_x) +
                          ", -" + std::to_string(cfg.shift_y) + ")";

  app.calibration = {
      {"load_frames", 8.8, 0.0, 0, 0, false, false, false},
      {"compute_gradients", 3.08, 0.080, 880, 1020, true, false, false},
      {"corner_response", 3.85, 0.090, 1450, 1700, true, false, false},
      {"select_features", 10.5, 0.0, 0, 0, false, false, false},
      {"track_features", 4.62, 0.120, 1120, 1290, true, false, false},
      {"report_tracks", 7.0, 0.0, 0, 0, false, false, false},
  };
  app.environment.base_infrastructure = core::Resources{223, 1232};
  q.seal();
  return app;
}

}  // namespace hybridic::apps
