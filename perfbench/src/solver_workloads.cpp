// The two solver workloads: warm steps of the slab solver (Navier-Stokes,
// N=128, np=4 pencils, q=1 per all-to-all) and of the pencil solver (MHD,
// N=96), both at 2 thread ranks with RK2 from a seeded isotropic state.
//
// End-to-end run: set-up (rank group, plans, arena first touch, IC, first
// step), then barrier-timed warm steps for --seconds. Diagnostics are taken
// between steps, outside the timed window, and checked afterwards:
// divergence at round-off, the energy budget, and (MHD) total energy never
// rising.
//
// Solver replay (part of every traced run): after set-up and a few warm
// steps (for the per-step counters), it calls each layer's public functions
// with the problem's own shapes and the same call counts as one step, and
// reports the median per-step time of each layer. Every replay repetition
// also times one real step, the coverage base, so base and layers are
// measured at the same moments of the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "comm/communicator.hpp"
#include "dns/pencil_solver.hpp"
#include "dns/solver.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "obs/registry.hpp"
#include "transpose/pencil.hpp"
#include "transpose/slab.hpp"
#include "util/arena.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using psdns::comm::Communicator;
using psdns::dns::SpectralEngine;
using psdns::fft::Complex;
using psdns::fft::Real;

constexpr double kViscosity = 0.01;
constexpr double kKPeak = 3.0;
constexpr double kEnergy = 0.5;          // initial kinetic energy
constexpr double kMagneticEnergy = 0.25;  // MHD: initial magnetic energy
constexpr double kCfl = 0.4;
// Energy-budget tolerance coefficient: residual <= kBudgetCoeff *
// (dt / tau)^2 * dissipated (see check_energy_budget).
constexpr double kBudgetCoeff = 0.5;
constexpr int kTraceCountSteps = 2;
// Agreement of the magnetic dissipation summed over the shell spectrum
// with the exact per-mode sum.
constexpr double kShellDissipationBand = 0.10;

/// Runs `body(engine)` on a freshly built solver of `spec` in this rank.
template <class Body>
void with_solver(Communicator& comm, const SolverSpec& spec, Body&& body) {
  if (spec.pencil) {
    psdns::dns::PencilSolverConfig cfg;
    cfg.n = spec.n;
    cfg.viscosity = kViscosity;
    cfg.pr = 1;
    cfg.pc = spec.ranks;
    cfg.system = spec.system;
    cfg.resistivity = kViscosity;
    psdns::dns::PencilSolver solver(comm, cfg);
    body(static_cast<SpectralEngine&>(solver));
  } else {
    psdns::dns::SolverConfig cfg;
    cfg.n = spec.n;
    cfg.viscosity = kViscosity;
    cfg.system = spec.system;
    cfg.resistivity = kViscosity;
    cfg.pencils = spec.np;
    cfg.pencils_per_a2a = spec.q;
    psdns::dns::SlabSolver solver(comm, cfg);
    body(static_cast<SpectralEngine&>(solver));
  }
}

/// The seeded initial state; returns the fixed dt the run steps with.
double init_state(SpectralEngine& s, std::uint64_t seed) {
  s.init_isotropic(seed, kKPeak, kEnergy);
  if (s.magnetic_base() >= 0) {
    s.init_magnetic_isotropic(seed ^ 0x5bd1e995ULL, kKPeak, kMagneticEnergy);
  }
  return s.cfl_dt(kCfl);
}

/// One between-steps sample of the checked quantities (collective).
struct Sample {
  double time = 0.0;
  double energy = 0.0;       // kinetic (+ magnetic for MHD)
  double dissipation = 0.0;  // kinetic (+ magnetic)
  double max_div = 0.0;      // max over velocity (and magnetic field)
  double speed = 0.0;        // u_max (Alfven units include b)
  double magnetic_dissipation = 0.0;        // MHD, exact per mode
  double magnetic_shell_dissipation = 0.0;  // MHD, from the shell spectrum
};

Sample sample(SpectralEngine& s) {
  const psdns::dns::Diagnostics d = s.diagnostics();
  Sample out{s.time(), d.energy, d.dissipation, d.max_divergence, d.u_max};
  if (const int mb = s.magnetic_base(); mb >= 0) {
    for (const auto& nv : s.system_diagnostics()) {
      if (nv.name == "magnetic_energy") out.energy += nv.value;
    }
    // Magnetic dissipation 2 eta sum_k |k|^2 |b_k|^2 / 2, mode by mode.
    const auto b = static_cast<std::size_t>(mb);
    const double eta = s.system().diffusivity(b);
    for (std::size_t c = 0; c < 3; ++c) {
      out.magnetic_dissipation += psdns::dns::field_dissipation(
          s.modes(), s.communicator(), s.field(b + c), eta);
    }
    out.dissipation += out.magnetic_dissipation;
    // The same from the shell spectrum, 2 eta sum_s s^2 E_b(s): a cross
    // check of the "magnetic" spectrum group.
    for (const auto& [name, spectrum] : s.named_spectra()) {
      if (name != "magnetic") continue;
      for (std::size_t k = 0; k < spectrum.size(); ++k) {
        out.magnetic_shell_dissipation +=
            2.0 * eta * static_cast<double>(k * k) * spectrum[k];
      }
    }
    out.max_div = std::max(
        out.max_div,
        psdns::dns::max_divergence(s.modes(), s.communicator(), s.field(b),
                                   s.field(b + 1), s.field(b + 2)));
  }
  return out;
}

bool finite(const Sample& x) {
  return std::isfinite(x.energy) && std::isfinite(x.dissipation) &&
         std::isfinite(x.max_div) && std::isfinite(x.speed);
}

/// Checks the sampled series and counts failed steps.
void check_series(const SolverSpec& spec, const std::vector<Sample>& series,
                  Report& r) {
  r.failed = 0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (!finite(series[i])) ++r.failed;
  }
  r.check(r.failed == 0, "non-finite diagnostics after a step");
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Sample& x = series[i];
    r.check(x.max_div <= 1e-10 * x.speed,
            "divergence " + std::to_string(x.max_div) + " above 1e-10 u_max " +
                std::to_string(x.speed) + " at sample " + std::to_string(i));
    if (spec.system == psdns::dns::SystemType::Mhd) {
      r.check(i == 0 || x.energy <= series[i - 1].energy * (1.0 + 1e-12),
              "MHD total energy rose at sample " + std::to_string(i));
      // Shell binning rounds |k| to the nearest integer, which biases
      // sum_s s^2 E(s) by a few percent at these low wavenumbers.
      const double shell_ratio =
          x.magnetic_shell_dissipation / x.magnetic_dissipation;
      if (i == 0) {
        std::fprintf(stderr, "magnetic dissipation shell/exact %.4f\n",
                     shell_ratio);
      }
      r.check(std::abs(shell_ratio - 1.0) <= kShellDissipationBand,
              "magnetic spectrum disagrees with the magnetic dissipation");
    }
  }
  std::vector<double> t, e, eps;
  for (const Sample& x : series) {
    t.push_back(x.time);
    e.push_back(x.energy);
    eps.push_back(x.dissipation);
  }
  const double tau_eta = std::sqrt(kViscosity / eps.front());
  const EnergyBudget b = check_energy_budget(t, e, eps, tau_eta, kBudgetCoeff);
  std::fprintf(stderr,
               "energy budget: residual %.3e, dissipated %.3e, tolerance "
               "%.3e over %zu steps\n",
               b.residual, b.dissipated, b.tolerance, series.size() - 1);
  r.check(b.ok, "energy budget residual outside its dt^2 tolerance");
}

// ---------------------------------------------------------------- replay

/// Per-rank field sets for the replay, with the pointer tables the
/// batched entry points take.
template <class T>
struct FieldSet {
  std::vector<std::vector<T>> data;
  std::vector<T*> mut;
  std::vector<const T*> cst;

  FieldSet(std::size_t count, std::size_t elems) : data(count) {
    for (auto& f : data) {
      f.assign(elems, T{});
      mut.push_back(f.data());
      cst.push_back(f.data());
    }
  }
};

/// Per-step layer times of one replay repetition.
struct LayerStep {
  double base = 0;  // one real step
  double inverse = 0, forward = 0, products = 0, rhs = 0, linear = 0;
  double fft_x = 0, fft_y = 0, fft_z = 0;
  double alltoall = 0, transpose = 0;
  double diagnostics = 0;
};

void replay(Communicator& comm, SpectralEngine& s, const SolverSpec& spec,
            double dt, double seconds, Report& r) {
  const bool root = comm.rank() == 0;
  const std::size_t n = spec.n, h = n / 2 + 1;
  const auto ranks = static_cast<std::size_t>(comm.size());
  const std::size_t nf = s.field_count();
  const std::size_t nprod = s.system().product_count();
  const std::size_t spec_elems = s.fft().spectral_elems();
  const std::size_t phys_elems = s.fft().physical_elems();
  // One RK2 step: two RHS evaluations (each an inverse transform of the
  // fields, the products, a forward transform of the products and the RHS
  // assembly) and three applications of the linear propagator.
  const int nrhs = 2;
  const int nlinear = 3;

  const auto timed = [&](auto&& fn) {
    comm.barrier();
    const auto t0 = Clock::now();
    fn();
    comm.barrier();
    return seconds_since(t0);
  };

  // Warm steps of the real solver, for the all-to-all counters and arena
  // misses they cost.
  auto& reg = psdns::obs::registry();
  auto& arena = psdns::util::WorkspaceArena::global();
  comm.barrier();  // the counts of earlier steps are in
  const auto calls0 = reg.counter("comm.alltoall.calls");
  const auto bytes0 = reg.counter("comm.alltoall.bytes");
  const auto misses0 = arena.stats().misses;
  for (int i = 0; i < kTraceCountSteps; ++i) s.step(dt);
  comm.barrier();  // every rank's counts are in
  const double a2a_calls =
      static_cast<double>(reg.counter("comm.alltoall.calls") - calls0) /
      kTraceCountSteps;
  const double a2a_bytes =
      static_cast<double>(reg.counter("comm.alltoall.bytes") - bytes0) /
      kTraceCountSteps;
  const double warm_misses =
      static_cast<double>(arena.stats().misses - misses0) / kTraceCountSteps;

  // Replay buffers: the state's spectra, physical fields and products.
  FieldSet<Complex> fields(nf, spec_elems), prod_spec(nprod, spec_elems),
      rhs(nf, spec_elems), lin(nf, spec_elems);
  const std::size_t nbig = std::max(nf, nprod);
  // Slab only: the Y-slab side of the replayed transposes.
  FieldSet<Complex> other(spec.pencil ? 0 : nbig, spec_elems);
  FieldSet<Real> phys(nf + nprod, phys_elems);
  for (std::size_t f = 0; f < nf; ++f) {
    std::copy(s.field(f), s.field(f) + spec_elems, fields.data[f].begin());
  }
  std::vector<Real*> field_phys(phys.mut.begin(), phys.mut.begin() + nf);
  std::vector<const Real*> field_phys_c(phys.cst.begin(),
                                        phys.cst.begin() + nf);
  std::vector<Real*> prod_phys(phys.mut.begin() + nf, phys.mut.end());
  std::vector<const Real*> prod_phys_c(phys.cst.begin() + nf, phys.cst.end());

  auto& fft = s.fft();
  const auto& sys = s.system();
  const auto plan_x = psdns::fft::get_plan_r2c(n);
  const auto plan_yz = psdns::fft::get_plan(n);

  // Backend-specific replay of the 1-D passes and the transposes.
  std::size_t x_lines = 0;
  std::size_t xbuf_elems = 0;
  std::unique_ptr<psdns::transpose::SlabTranspose> slab_tr;
  std::unique_ptr<psdns::transpose::PencilTranspose> pencil_tr;
  if (spec.pencil) {
    pencil_tr = std::make_unique<psdns::transpose::PencilTranspose>(
        comm, psdns::transpose::PencilGrid{h, n, n, 1, spec.ranks});
    const auto& g = pencil_tr->grid();
    x_lines = g.yl() * g.zl();
    xbuf_elems = std::max(h * g.yl() * g.zl(), spec_elems);
  } else {
    slab_tr = std::make_unique<psdns::transpose::SlabTranspose>(
        comm, psdns::transpose::SlabGrid{h, n, n, spec.ranks});
    x_lines = n * slab_tr->grid().my();
    xbuf_elems = h * n * slab_tr->grid().my();
  }
  std::vector<Complex> xbuf(xbuf_elems), ybuf(xbuf_elems), zbuf(xbuf_elems);
  std::vector<Complex> send, recv;
  // Collective all-to-alls per step (the counters add one call per rank)
  // and, for the pencil's raw replay, their mean block.
  const auto a2a_collectives =
      static_cast<std::size_t>(std::lround(a2a_calls / ranks));
  const std::size_t a2a_block = static_cast<std::size_t>(
      a2a_bytes / std::max(a2a_calls, 1.0) / ranks / sizeof(Complex));
  if (slab_tr) {
    const std::size_t block = slab_tr->block_elems(h, nbig);
    send.resize(block * ranks);
    recv.resize(block * ranks);
  } else {
    send.resize(std::max<std::size_t>(a2a_block, 1) * ranks);
    recv.resize(send.size());
  }

  const auto passes_x = [&] {
    for (int e = 0; e < nrhs; ++e) {
      for (std::size_t v = 0; v < nf; ++v) {
        plan_x->inverse_batch(xbuf.data(), h, phys.mut[v], n, x_lines);
      }
      for (std::size_t v = 0; v < nprod; ++v) {
        plan_x->forward_batch(phys.cst[v], n, xbuf.data(), h, x_lines);
      }
    }
  };
  // The y and z passes of one variable, both directions.
  const std::size_t var_transforms = (nf + nprod) * static_cast<std::size_t>(nrhs);
  const auto passes_yz = [&](bool y_pass) {
    for (std::size_t rep = 0; rep < var_transforms; ++rep) {
      const auto dir = rep % 2 == 0 ? psdns::fft::Direction::Forward
                                    : psdns::fft::Direction::Inverse;
      if (spec.pencil) {
        const auto& g = pencil_tr->grid();
        const std::size_t w = pencil_tr->x_range().width();
        Complex* buf = y_pass ? ybuf.data() : zbuf.data();
        const std::size_t count = y_pass ? w * g.zl() : w * g.yl2();
        plan_yz->transform_batch(dir, buf, buf,
                                 {.count = count, .stride = 1, .dist = n});
      } else {
        const std::size_t planes = y_pass ? slab_tr->grid().mz()
                                          : slab_tr->grid().my();
        Complex* buf = y_pass ? ybuf.data() : zbuf.data();
        for (std::size_t p = 0; p < planes; ++p) {
          Complex* base_ptr = buf + h * n * p;
          plan_yz->transform_batch(dir, base_ptr, base_ptr,
                                   {.count = h, .stride = h, .dist = 1});
        }
      }
    }
  };

  std::vector<LayerStep> steps;
  const auto start = Clock::now();
  while (true) {
    int go = root && (steps.size() < 3 || seconds_since(start) < seconds);
    comm.broadcast(&go, 1, 0);
    if (!go) break;
    LayerStep L;
    L.base = timed([&] { s.step(dt); });
    for (int e = 0; e < nrhs; ++e) {
      L.inverse += timed([&] {
        fft.inverse(std::span<const Complex* const>(fields.cst.data(), nf),
                    std::span<Real* const>(field_phys.data(), nf));
      });
      L.products += timed([&] {
        sys.form_products(field_phys_c.data(), prod_phys.data(), phys_elems);
      });
      L.forward += timed([&] {
        fft.forward(std::span<const Real* const>(prod_phys_c.data(), nprod),
                    std::span<Complex* const>(prod_spec.mut.data(), nprod));
      });
      L.rhs += timed([&] {
        sys.assemble_rhs(s.modes(), fields.cst.data(), prod_spec.cst.data(),
                         rhs.mut.data());
      });
    }
    for (std::size_t f = 0; f < nf; ++f) lin.data[f] = fields.data[f];
    for (int e = 0; e < nlinear; ++e) {
      L.linear += timed([&] { sys.apply_linear(s.modes(), lin.mut.data(), dt); });
    }
    L.fft_x = timed(passes_x);
    L.fft_y = timed([&] { passes_yz(true); });
    L.fft_z = timed([&] { passes_yz(false); });

    if (slab_tr) {
      // One transpose per dist_fft call: inverse (z->y) on nf fields,
      // forward (y->z) on nprod products, in np pencils, q per all-to-all.
      for (int e = 0; e < nrhs; ++e) {
        for (const bool inverse : {true, false}) {
          const std::size_t nv = inverse ? nf : nprod;
          const std::span<const Complex* const> zs(
              inverse ? fields.cst.data() : prod_spec.cst.data(), nv);
          const std::span<Complex* const> zs_mut(prod_spec.mut.data(), nv);
          const std::span<const Complex* const> ys(other.cst.data(), nv);
          const std::span<Complex* const> ys_mut(other.mut.data(), nv);
          for (int ip = 0; ip < spec.np; ip += spec.q) {
            const auto lo = psdns::transpose::pencil_range(h, spec.np, ip);
            const auto hi = psdns::transpose::pencil_range(
                h, spec.np, std::min(ip + spec.q, spec.np) - 1);
            const std::size_t block =
                slab_tr->block_elems(hi.x1 - lo.x0, nv);
            const std::span<Complex> sbuf(send.data(), block * ranks);
            const std::span<const Complex> rbuf(recv.data(), block * ranks);
            L.transpose += timed([&] {
              if (inverse) {
                slab_tr->pack_z(zs, lo.x0, hi.x1, sbuf);
              } else {
                slab_tr->pack_y(ys, lo.x0, hi.x1, sbuf);
              }
            });
            const double a2a = timed(
                [&] { comm.alltoall(send.data(), recv.data(), block); });
            L.alltoall += a2a;
            L.transpose += a2a;
            L.transpose += timed([&] {
              if (inverse) {
                slab_tr->unpack_y(rbuf, lo.x0, hi.x1, ys_mut);
              } else {
                slab_tr->unpack_z(rbuf, lo.x0, hi.x1, zs_mut);
              }
            });
          }
        }
      }
    } else {
      const auto& g = pencil_tr->grid();
      const std::size_t w = pencil_tr->x_range().width();
      const std::span<Complex> px(xbuf.data(), h * g.yl() * g.zl());
      const std::span<Complex> py(ybuf.data(), n * w * g.zl());
      const std::span<Complex> pz(zbuf.data(), spec_elems);
      for (int e = 0; e < nrhs; ++e) {
        L.transpose += timed([&] {
          for (std::size_t v = 0; v < nf; ++v) {
            pencil_tr->z_to_y(pz, py);
            pencil_tr->y_to_x(py, px);
          }
          for (std::size_t v = 0; v < nprod; ++v) {
            pencil_tr->x_to_y(px, py);
            pencil_tr->y_to_z(py, pz);
          }
        });
      }
      // The pencil transposes exchange inside PencilTranspose; replay
      // their all-to-alls as raw calls of the step's mean size.
      L.alltoall = timed([&] {
        for (std::size_t c = 0; c < a2a_collectives; ++c) {
          comm.alltoall(send.data(), recv.data(), a2a_block);
        }
      });
    }
    L.diagnostics = timed([&] { (void)s.diagnostics(); });
    steps.push_back(L);
  }

  if (!root) return;
  const auto med = [&](double LayerStep::*m) {
    std::vector<double> v;
    for (const auto& x : steps) v.push_back(x.*m);
    return median(v);
  };
  const double step_s = med(&LayerStep::base);
  const double inverse = med(&LayerStep::inverse);
  const double forward = med(&LayerStep::forward);
  const double products = med(&LayerStep::products);
  const double rhs_s = med(&LayerStep::rhs);
  const double linear = med(&LayerStep::linear);
  const double attributed = inverse + forward + products + rhs_s + linear;
  const double fft_s =
      med(&LayerStep::fft_x) + med(&LayerStep::fft_y) + med(&LayerStep::fft_z);
  // Conventional flop count of a real 3-D FFT: 2.5 N^3 log2(N^3) per
  // variable, for every variable transformed in one step (all ranks).
  const double n3 = static_cast<double>(n * n * n);
  const double flops = static_cast<double>(var_transforms) * 2.5 * n3 *
                       std::log2(n3);
  // Complex data the transposes re-lay out per step (all ranks): one
  // transpose per variable and direction on the slab, two on the pencil.
  const double field_bytes = static_cast<double>(h * n * n * sizeof(Complex));
  const double transposes_per_var = spec.pencil ? 2.0 : 1.0;

  r.add("step.base_s", step_s, "s");
  r.add("dist_fft.inverse_s", inverse, "s");
  r.add("dist_fft.forward_s", forward, "s");
  r.add("fft.x_s", med(&LayerStep::fft_x), "s");
  r.add("fft.y_s", med(&LayerStep::fft_y), "s");
  r.add("fft.z_s", med(&LayerStep::fft_z), "s");
  r.add("fft.flops", flops, "count");
  r.add("fft.gflops", flops / fft_s / 1e9, "GFLOP/s");
  r.add("transpose.s", med(&LayerStep::transpose), "s");
  r.add("comm.alltoall_s", med(&LayerStep::alltoall), "s");
  r.add("transpose.bytes",
        static_cast<double>(var_transforms) * transposes_per_var * field_bytes,
        "bytes");
  r.add("comm.alltoall_calls", a2a_calls, "count");
  r.add("comm.alltoall_bytes", a2a_bytes, "bytes");
  r.add("system.products_s", products, "s");
  r.add("system.rhs_s", rhs_s, "s");
  r.add("system.linear_s", linear, "s");
  r.add("engine.diagnostics_s", med(&LayerStep::diagnostics), "s");
  r.add("step.unattributed_s", step_s - attributed, "s");
  r.add("step.coverage", attributed / step_s, "ratio");
  r.add("arena.peak_bytes", static_cast<double>(arena.stats().peak_bytes),
        "bytes");
  r.add("arena.warm_misses", warm_misses, "count");
  r.attempted += static_cast<std::int64_t>(kTraceCountSteps + steps.size());
}

}  // namespace

Report run_solver(const Options& opt, SolverSpec spec) {
  if (opt.ranks > 0) spec.ranks = opt.ranks;
  Report r;
  double setup_s = 0.0;
  std::vector<double> step_s;
  std::vector<Sample> series;

  const auto t0 = Clock::now();
  psdns::comm::run_ranks(spec.ranks, [&](Communicator& comm) {
    with_solver(comm, spec, [&](SpectralEngine& s) {
      const bool root = comm.rank() == 0;
      const double dt = init_state(s, opt.seed);
      s.step(dt);
      comm.barrier();
      if (root) setup_s = seconds_since(t0);
      if (opt.setup_only) return;

      Sample first = sample(s);
      if (root) series.push_back(first);
      const auto start = Clock::now();
      while (true) {
        int go = root && (step_s.size() < 3 ||
                          seconds_since(start) < opt.seconds);
        comm.broadcast(&go, 1, 0);
        if (!go) break;
        comm.barrier();
        const auto a = Clock::now();
        s.step(dt);
        comm.barrier();
        const double took = seconds_since(a);
        const Sample x = sample(s);  // outside the timed window
        if (root) {
          step_s.push_back(took);
          series.push_back(x);
        }
      }
    });
  });

  if (opt.setup_only) {
    r.add("setup_s", setup_s, "s");
    return r;
  }
  r.attempted = static_cast<std::int64_t>(step_s.size());
  std::fprintf(stderr, "warm steps: %zu, min %.4f q1 %.4f median %.4f q3 %.4f max %.4f s\n",
               step_s.size(), percentile(step_s, 1e-9), percentile(step_s, 25),
               median(step_s), percentile(step_s, 75), percentile(step_s, 100));
  check_series(spec, series, r);
  r.add("op_s", median(step_s), "s");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_bytes", peak_rss_bytes(), "bytes");
  return r;
}

void trace_solver(const SolverSpec& spec, std::uint64_t seed, double seconds,
                  Report& r) {
  psdns::comm::run_ranks(spec.ranks, [&](Communicator& comm) {
    with_solver(comm, spec, [&](SpectralEngine& s) {
      const double dt = init_state(s, seed);
      s.step(dt);
      replay(comm, s, spec, dt, seconds, r);
    });
  });
}

SolverSpec slab_spec() {
  return {.pencil = false,
          .n = 128,
          .ranks = 2,
          .system = psdns::dns::SystemType::NavierStokes,
          .np = 4,
          .q = 1};
}

SolverSpec pencil_spec() {
  return {.pencil = true,
          .n = 96,
          .ranks = 2,
          .system = psdns::dns::SystemType::Mhd};
}

SolverSpec job_spec() {
  return {.pencil = false,
          .n = 32,
          .ranks = 2,
          .system = psdns::dns::SystemType::NavierStokes};
}

}  // namespace perfbench
