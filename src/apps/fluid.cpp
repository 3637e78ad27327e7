#include "apps/fluid.hpp"

#include <cmath>
#include <vector>

#include "prof/tracked.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {

namespace {

using prof::QuadProfiler;
using prof::ScopedFunction;
using prof::TrackedBuffer;

/// Index into an (N+2)x(N+2) grid.
class Grid {
public:
  explicit Grid(std::uint32_t n) : n_(n), stride_(n + 2) {}
  [[nodiscard]] std::size_t at(std::uint32_t x, std::uint32_t y) const {
    return static_cast<std::size_t>(y) * stride_ + x;
  }
  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(stride_) * stride_;
  }

private:
  std::uint32_t n_;
  std::uint32_t stride_;
};

using Field = TrackedBuffer<float>;

/// Reflecting/continuity boundary conditions (Stam's set_bnd).
void set_bnd(const Grid& g, int b, Field& x) {
  const std::uint32_t n = g.n();
  for (std::uint32_t i = 1; i <= n; ++i) {
    x.set(g.at(0, i), b == 1 ? -x.get(g.at(1, i)) : x.get(g.at(1, i)));
    x.set(g.at(n + 1, i),
          b == 1 ? -x.get(g.at(n, i)) : x.get(g.at(n, i)));
    x.set(g.at(i, 0), b == 2 ? -x.get(g.at(i, 1)) : x.get(g.at(i, 1)));
    x.set(g.at(i, n + 1),
          b == 2 ? -x.get(g.at(i, n)) : x.get(g.at(i, n)));
  }
  x.set(g.at(0, 0), 0.5F * (x.get(g.at(1, 0)) + x.get(g.at(0, 1))));
  x.set(g.at(0, n + 1),
        0.5F * (x.get(g.at(1, n + 1)) + x.get(g.at(0, n))));
  x.set(g.at(n + 1, 0),
        0.5F * (x.get(g.at(n, 0)) + x.get(g.at(n + 1, 1))));
  x.set(g.at(n + 1, n + 1),
        0.5F * (x.get(g.at(n, n + 1)) + x.get(g.at(n + 1, n))));
}

/// Gauss-Seidel diffusion: out <- diffuse(in).
void diffuse_field(QuadProfiler& q, const Grid& g, int b, Field& out,
                   const Field& in, const FluidConfig& cfg) {
  const std::uint32_t n = g.n();
  const float a = cfg.dt * cfg.diffusion * static_cast<float>(n) *
                  static_cast<float>(n);
  // Initialize with the previous state, then relax.
  for (std::uint32_t y = 0; y <= n + 1; ++y) {
    for (std::uint32_t x = 0; x <= n + 1; ++x) {
      out.set(g.at(x, y), in.get(g.at(x, y)));
    }
  }
  for (std::uint32_t k = 0; k < cfg.gs_iterations; ++k) {
    for (std::uint32_t y = 1; y <= n; ++y) {
      for (std::uint32_t x = 1; x <= n; ++x) {
        const float value =
            (in.get(g.at(x, y)) +
             a * (out.get(g.at(x - 1, y)) + out.get(g.at(x + 1, y)) +
                  out.get(g.at(x, y - 1)) + out.get(g.at(x, y + 1)))) /
            (1.0F + 4.0F * a);
        out.set(g.at(x, y), value);
        q.add_work(7);
      }
    }
    set_bnd(g, b, out);
  }
}

/// Semi-Lagrangian advection: out <- advect(in) by velocity (u, v).
void advect_field(QuadProfiler& q, const Grid& g, int b, Field& out,
                  const Field& in, const Field& u, const Field& v,
                  const FluidConfig& cfg) {
  const std::uint32_t n = g.n();
  const float dt0 = cfg.dt * static_cast<float>(n);
  for (std::uint32_t y = 1; y <= n; ++y) {
    for (std::uint32_t x = 1; x <= n; ++x) {
      float px = static_cast<float>(x) - dt0 * u.get(g.at(x, y));
      float py = static_cast<float>(y) - dt0 * v.get(g.at(x, y));
      px = std::min(std::max(px, 0.5F), static_cast<float>(n) + 0.5F);
      py = std::min(std::max(py, 0.5F), static_cast<float>(n) + 0.5F);
      const auto x0 = static_cast<std::uint32_t>(px);
      const auto y0 = static_cast<std::uint32_t>(py);
      const float s1 = px - static_cast<float>(x0);
      const float t1 = py - static_cast<float>(y0);
      const float s0 = 1.0F - s1;
      const float t0 = 1.0F - t1;
      out.set(g.at(x, y),
              s0 * (t0 * in.get(g.at(x0, y0)) +
                    t1 * in.get(g.at(x0, y0 + 1))) +
                  s1 * (t0 * in.get(g.at(x0 + 1, y0)) +
                        t1 * in.get(g.at(x0 + 1, y0 + 1))));
      q.add_work(14);
    }
  }
  set_bnd(g, b, out);
}

/// Pressure projection: make (u, v) divergence-free.
void project_field(QuadProfiler& q, const Grid& g, Field& u, Field& v,
                   Field& p, Field& div, const FluidConfig& cfg) {
  const std::uint32_t n = g.n();
  const float h = 1.0F / static_cast<float>(n);
  for (std::uint32_t y = 1; y <= n; ++y) {
    for (std::uint32_t x = 1; x <= n; ++x) {
      div.set(g.at(x, y),
              -0.5F * h *
                  (u.get(g.at(x + 1, y)) - u.get(g.at(x - 1, y)) +
                   v.get(g.at(x, y + 1)) - v.get(g.at(x, y - 1))));
      p.set(g.at(x, y), 0.0F);
      q.add_work(6);
    }
  }
  set_bnd(g, 0, div);
  set_bnd(g, 0, p);
  for (std::uint32_t k = 0; k < cfg.gs_iterations * 2; ++k) {
    for (std::uint32_t y = 1; y <= n; ++y) {
      for (std::uint32_t x = 1; x <= n; ++x) {
        p.set(g.at(x, y),
              (div.get(g.at(x, y)) + p.get(g.at(x - 1, y)) +
               p.get(g.at(x + 1, y)) + p.get(g.at(x, y - 1)) +
               p.get(g.at(x, y + 1))) /
                  4.0F);
        q.add_work(6);
      }
    }
    set_bnd(g, 0, p);
  }
  for (std::uint32_t y = 1; y <= n; ++y) {
    for (std::uint32_t x = 1; x <= n; ++x) {
      u.set(g.at(x, y),
            u.get(g.at(x, y)) - 0.5F *
                                    (p.get(g.at(x + 1, y)) -
                                     p.get(g.at(x - 1, y))) /
                                    h);
      v.set(g.at(x, y),
            v.get(g.at(x, y)) - 0.5F *
                                    (p.get(g.at(x, y + 1)) -
                                     p.get(g.at(x, y - 1))) /
                                    h);
      q.add_work(8);
    }
  }
  set_bnd(g, 1, u);
  set_bnd(g, 2, v);
}

/// Interior divergence magnitude, untracked (verification only).
double divergence_norm(const Grid& g, const Field& u, const Field& v) {
  const std::uint32_t n = g.n();
  double sum = 0.0;
  for (std::uint32_t y = 2; y < n; ++y) {
    for (std::uint32_t x = 2; x < n; ++x) {
      const double d = 0.5 * (u.peek(g.at(x + 1, y)) - u.peek(g.at(x - 1, y)) +
                              v.peek(g.at(x, y + 1)) - v.peek(g.at(x, y - 1)));
      sum += d * d;
    }
  }
  return std::sqrt(sum / static_cast<double>((n - 2) * (n - 2)));
}

}  // namespace

ProfiledApp run_fluid(const FluidConfig& cfg) {
  ProfiledApp app;
  app.name = "fluid";
  app.profiler = std::make_unique<QuadProfiler>(prof::ProfileMode::kDeferred);
  QuadProfiler& q = *app.profiler;

  const auto fn_init = q.declare("init_fields");
  const auto fn_diffuse = q.declare("diffuse");
  const auto fn_advect = q.declare("advect");
  const auto fn_project = q.declare("project");
  const auto fn_read = q.declare("read_state");

  const Grid g{cfg.grid};
  Field d{q, "density", g.cells()};
  Field d0{q, "density0", g.cells()};
  Field u{q, "vel_u", g.cells()};
  Field v{q, "vel_v", g.cells()};
  Field u0{q, "vel_u0", g.cells()};
  Field v0{q, "vel_v0", g.cells()};
  Field p{q, "pressure", g.cells()};
  Field div{q, "divergence", g.cells()};

  // ---- init_fields (host). ----
  {
    ScopedFunction scope{q, fn_init};
    Rng rng{cfg.seed};
    const std::uint32_t n = g.n();
    for (std::uint32_t y = 0; y <= n + 1; ++y) {
      for (std::uint32_t x = 0; x <= n + 1; ++x) {
        d.set(g.at(x, y), 0.0F);
        // Deliberately non-solenoidal so the projection step has real
        // divergence to remove (checked by the self-verification below).
        u.set(g.at(x, y), 0.08F * std::sin(static_cast<float>(x) * 0.21F +
                                           static_cast<float>(y) * 0.13F));
        v.set(g.at(x, y), 0.08F * std::cos(static_cast<float>(x) * 0.17F -
                                           static_cast<float>(y) * 0.11F));
        q.add_work(4);
      }
    }
    // Dense smoke puffs.
    for (std::uint32_t puff = 0; puff < 4; ++puff) {
      const std::uint32_t cx =
          static_cast<std::uint32_t>(rng.between(n / 4, 3 * n / 4));
      const std::uint32_t cy =
          static_cast<std::uint32_t>(rng.between(n / 4, 3 * n / 4));
      for (std::int32_t dy = -3; dy <= 3; ++dy) {
        for (std::int32_t dx = -3; dx <= 3; ++dx) {
          d.set(g.at(cx + static_cast<std::uint32_t>(dx + 3) - 3,
                     cy + static_cast<std::uint32_t>(dy + 3) - 3),
                1.0F);
          q.add_work(1);
        }
      }
    }
  }

  double initial_divergence = divergence_norm(g, u, v);
  double final_divergence = initial_divergence;

  // ---- Time stepping. ----
  for (std::uint32_t step = 0; step < cfg.steps; ++step) {
    // Velocity step.
    {
      ScopedFunction scope{q, fn_diffuse};
      diffuse_field(q, g, 1, u0, u, cfg);
      diffuse_field(q, g, 2, v0, v, cfg);
    }
    {
      ScopedFunction scope{q, fn_project};
      project_field(q, g, u0, v0, p, div, cfg);
    }
    {
      ScopedFunction scope{q, fn_advect};
      advect_field(q, g, 1, u, u0, u0, v0, cfg);
      advect_field(q, g, 2, v, v0, u0, v0, cfg);
    }
    {
      ScopedFunction scope{q, fn_project};
      project_field(q, g, u, v, p, div, cfg);
    }
    // Density step.
    {
      ScopedFunction scope{q, fn_diffuse};
      diffuse_field(q, g, 0, d0, d, cfg);
    }
    {
      ScopedFunction scope{q, fn_advect};
      advect_field(q, g, 0, d, d0, u, v, cfg);
    }
    final_divergence = divergence_norm(g, u, v);
  }

  // ---- read_state (host). ----
  double total_density = 0.0;
  bool non_negative = true;
  {
    ScopedFunction scope{q, fn_read};
    for (std::size_t i = 0; i < g.cells(); ++i) {
      const float dv = d.get(i);
      total_density += dv;
      if (dv < -1e-4F) {
        non_negative = false;
      }
      q.add_work(1);
    }
    for (std::size_t i = 0; i < g.cells(); ++i) {
      (void)u.get(i);
      (void)v.get(i);
      q.add_work(2);
    }
  }

  app.verified = non_negative && total_density > 1.0 &&
                 final_divergence < 0.5 * initial_divergence;
  app.verification_note =
      "total density " + std::to_string(total_density) +
      ", divergence " + std::to_string(initial_divergence) + " -> " +
      std::to_string(final_divergence);

  app.calibration = {
      {"init_fields", 14.7, 0.0, 0, 0, false, false, false},
      {"diffuse", 0.529, 0.0488, 5230, 8580, true, false, false},
      {"advect", 0.652, 0.0592, 6120, 9950, true, false, false},
      {"project", 0.570, 0.0523, 5630, 9200, true, false, false},
      {"read_state", 11.7, 0.0, 0, 0, false, false, false},
  };
  app.environment.base_infrastructure = core::Resources{1097, 875};
  q.seal();
  return app;
}

}  // namespace hybridic::apps
