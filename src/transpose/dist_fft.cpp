#include "transpose/dist_fft.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {

using fft::BatchLayout;

// ---------------------------------------------------------------- DistFft3d

void DistFft3d::forward(std::span<const Real> phys, std::span<Complex> spec) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Real* p = phys.data();
  Complex* s = spec.data();
  forward(std::span<const Real* const>(&p, 1),
          std::span<Complex* const>(&s, 1));
}

void DistFft3d::inverse(std::span<const Complex> spec, std::span<Real> phys) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Complex* s = spec.data();
  Real* p = phys.data();
  inverse(std::span<const Complex* const>(&s, 1),
          std::span<Real* const>(&p, 1));
}

// ---------------------------------------------------------------- SlabFft3d

SlabFft3d::SlabFft3d(comm::Communicator& comm, std::size_t n)
    : comm_(comm),
      n_(n),
      transpose_(comm, SlabGrid{n / 2 + 1, n, n, comm.size()}),
      plan_x_(fft::get_plan_r2c(n)),
      plan_yz_(fft::get_plan(n)) {
  PSDNS_REQUIRE(n >= 2, "grid too small");
}

void SlabFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec) {
  forward(phys, spec, np_, q_);
}

void SlabFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys) {
  inverse(spec, phys, np_, q_);
}

void SlabFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec, int np, int q) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t h = nxh();
  if (work_.size() < nv) work_.resize(nv);

  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    auto& w = work_[v];
    w.ensure(h * n_ * my());
    yslab_ptrs_[v] = w.data();
    obs::ScopedTimer timer("slab_fft.forward.xz");
    obs::TraceSpan span("slab_fft.forward.xz", obs::SpanKind::Compute);
    // One pass per y-plane jj (lines [jj*n, (jj+1)*n) of both arrays): the
    // x real-to-complex lines, then the z lines (stride nxh) of the same
    // plane while it is still cache-resident. Planes are disjoint, so they
    // stripe across the worker pool (the batched calls then run inline).
    util::ThreadPool::global().parallel_for(
        "fft.slab.xz", 0, my(), [&](std::size_t jj) {
          Complex* plane = w.data() + h * n_ * jj;
          plan_x_->forward_batch(phys[v] + n_ * n_ * jj, n_, plane, h, n_);
          plan_yz_->transform_batch(fft::Direction::Forward, plane, plane,
                                    BatchLayout{.count = h, .stride = h,
                                                .dist = 1});
        });
  }

  // Global transpose to Z-slabs, batched as np pencils / q per all-to-all.
  transpose_.y_to_z(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(yslab_ptrs_.data()), nv),
      spec, np, q);

  // y: strided lines (stride nxh) inside the Z-slab.
  obs::ScopedTimer timer("slab_fft.forward.y");
  obs::TraceSpan span("slab_fft.forward.y", obs::SpanKind::Compute);
  util::ThreadPool::global().parallel_for(
      "fft.slab.y", 0, nv * mz(), [&](std::size_t idx) {
        const std::size_t v = idx / mz();
        const std::size_t kk = idx % mz();
        Complex* base = spec[v] + h * n_ * kk;
        plan_yz_->transform_batch(fft::Direction::Forward, base, base,
                                  BatchLayout{.count = h, .stride = h,
                                              .dist = 1});
      });
}

void SlabFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys, int np, int q) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t h = nxh();
  if (work_.size() < 2 * nv) work_.resize(2 * nv);

  // y-inverse out of place into scratch Z-slabs (the input stays const).
  if (zslab_ptrs_.size() < nv) zslab_ptrs_.resize(nv);
  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  {
    obs::ScopedTimer timer("slab_fft.inverse.y");
    obs::TraceSpan span("slab_fft.inverse.y", obs::SpanKind::Compute);
    for (std::size_t v = 0; v < nv; ++v) {
      auto& wz = work_[v];
      wz.ensure(h * n_ * mz());
      zslab_ptrs_[v] = wz.data();
      util::ThreadPool::global().parallel_for(
          "fft.slab.y", 0, mz(), [&](std::size_t kk) {
            const std::size_t off = h * n_ * kk;
            plan_yz_->transform_batch(fft::Direction::Inverse, spec[v] + off,
                                      wz.data() + off,
                                      BatchLayout{.count = h, .stride = h,
                                                  .dist = 1});
          });
      auto& wy = work_[nv + v];
      wy.ensure(h * n_ * my());
      yslab_ptrs_[v] = wy.data();
    }
  }

  transpose_.z_to_y(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(zslab_ptrs_.data()), nv),
      std::span<Complex* const>(yslab_ptrs_.data(), nv), np, q);

  for (std::size_t v = 0; v < nv; ++v) {
    Complex* w = yslab_ptrs_[v];
    obs::ScopedTimer timer("slab_fft.inverse.zx");
    obs::TraceSpan span("slab_fft.inverse.zx", obs::SpanKind::Compute);
    // Per y-plane, the z lines and then the plane's x complex-to-real
    // lines, as in forward.
    util::ThreadPool::global().parallel_for(
        "fft.slab.xz", 0, my(), [&](std::size_t jj) {
          Complex* plane = w + h * n_ * jj;
          plan_yz_->transform_batch(fft::Direction::Inverse, plane, plane,
                                    BatchLayout{.count = h, .stride = h,
                                                .dist = 1});
          plan_x_->inverse_batch(plane, h, phys[v] + n_ * n_ * jj, n_, n_);
        });
  }
}

void SlabFft3d::forward(std::span<const Real> phys, std::span<Complex> spec,
                        int np, int q) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Real* p = phys.data();
  Complex* s = spec.data();
  forward(std::span<const Real* const>(&p, 1),
          std::span<Complex* const>(&s, 1), np, q);
}

void SlabFft3d::inverse(std::span<const Complex> spec, std::span<Real> phys,
                        int np, int q) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Complex* s = spec.data();
  Real* p = phys.data();
  inverse(std::span<const Complex* const>(&s, 1),
          std::span<Real* const>(&p, 1), np, q);
}

// -------------------------------------------------------------- PencilFft3d

PencilFft3d::PencilFft3d(comm::Communicator& comm, std::size_t n, int pr,
                         int pc)
    : n_(n),
      transpose_(comm, PencilGrid{n / 2 + 1, n, n, pr, pc}),
      plan_x_(fft::get_plan_r2c(n)),
      plan_yz_(fft::get_plan(n)) {
  PSDNS_REQUIRE(n >= 2, "grid too small");
}

void PencilFft3d::forward(std::span<const Real* const> phys,
                          std::span<Complex* const> spec) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  for (std::size_t v = 0; v < phys.size(); ++v) {
    forward(std::span<const Real>(phys[v], physical_elems()),
            std::span<Complex>(spec[v], spectral_elems()));
  }
}

void PencilFft3d::inverse(std::span<const Complex* const> spec,
                          std::span<Real* const> phys) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  for (std::size_t v = 0; v < phys.size(); ++v) {
    inverse(std::span<const Complex>(spec[v], spectral_elems()),
            std::span<Real>(phys[v], physical_elems()));
  }
}

void PencilFft3d::forward(std::span<const Real> phys,
                          std::span<Complex> spec) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");

  px_.ensure(h * yl * zl);
  py_.ensure(n_ * w * zl);

  // x: real-to-complex, all yl*zl unit-stride lines of the X-pencil at once.
  {
    obs::ScopedTimer timer("pencil_fft.forward.x");
    obs::TraceSpan span("pencil_fft.forward.x", obs::SpanKind::Compute);
    plan_x_->forward_batch(phys.data(), n_, px_.data(), h, yl * zl);
  }

  // Row transpose, then y on the contiguous lines of the Y-pencil (one
  // arithmetic progression: dist n_, stride 1).
  transpose_.x_to_y(std::span<const Complex>(px_.data(), h * yl * zl),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::ScopedTimer timer("pencil_fft.forward.y");
    obs::TraceSpan span("pencil_fft.forward.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Forward, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  // Column transpose, then z on contiguous lines of the Z-pencil.
  transpose_.y_to_z(std::span<const Complex>(py_.data(), n_ * w * zl), spec);
  {
    obs::ScopedTimer timer("pencil_fft.forward.z");
    obs::TraceSpan span("pencil_fft.forward.z", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Forward, spec.data(),
                              spec.data(),
                              BatchLayout{.count = w * g.yl2(), .stride = 1,
                                          .dist = n_});
  }
}

void PencilFft3d::inverse(std::span<const Complex> spec,
                          std::span<Real> phys) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");

  px_.ensure(h * yl * zl);
  py_.ensure(n_ * w * zl);
  pz_.ensure(spectral_elems());

  // z-inverse on a reusable scratch copy of the Z-pencil.
  std::copy(spec.data(), spec.data() + spectral_elems(), pz_.data());
  {
    obs::ScopedTimer timer("pencil_fft.inverse.z");
    obs::TraceSpan span("pencil_fft.inverse.z", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, pz_.data(), pz_.data(),
                              BatchLayout{.count = w * g.yl2(), .stride = 1,
                                          .dist = n_});
  }

  transpose_.z_to_y(std::span<const Complex>(pz_.data(), spectral_elems()),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::ScopedTimer timer("pencil_fft.inverse.y");
    obs::TraceSpan span("pencil_fft.inverse.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  transpose_.y_to_x(std::span<const Complex>(py_.data(), n_ * w * zl),
                    std::span<Complex>(px_.data(), h * yl * zl));
  {
    obs::ScopedTimer timer("pencil_fft.inverse.x");
    obs::TraceSpan span("pencil_fft.inverse.x", obs::SpanKind::Compute);
    plan_x_->inverse_batch(px_.data(), h, phys.data(), n_, yl * zl);
  }
}

// ------------------------------------------------------------ make_dist_fft

std::unique_ptr<DistFft3d> make_dist_fft(comm::Communicator& comm,
                                         std::size_t n,
                                         Decomposition decomposition, int pr,
                                         int pc) {
  if (decomposition == Decomposition::Pencil) {
    return std::make_unique<PencilFft3d>(comm, n, pr, pc);
  }
  return std::make_unique<SlabFft3d>(comm, n);
}

// -------------------------------------------------------------- GlobalModes

GlobalModes::GlobalModes(comm::Communicator& comm, const ModeView& mine)
    : comm_(comm), n_(mine.n), views_(static_cast<std::size_t>(comm.size())) {
  comm_.gather(&mine, views_.data(), 1, 0);
  comm_.broadcast(views_.data(), views_.size(), 0);
  for (const ModeView& v : views_) counts_.push_back(v.local_modes());
  if (comm_.rank() == 0) staging_.resize(global_size());
}

template <class F>
void GlobalModes::for_each_placement(F&& f) const {
  const auto storage = [this](int k) {
    return static_cast<std::size_t>(k < 0 ? k + static_cast<int>(n_) : k);
  };
  std::size_t base = 0;
  for (std::size_t r = 0; r < views_.size(); ++r) {
    for_each_mode(views_[r], [&](std::size_t idx, int kx, int ky, int kz) {
      f(static_cast<std::size_t>(kx) +
            (n_ / 2 + 1) * (storage(ky) + n_ * storage(kz)),
        base + idx);
    });
    base += counts_[r];
  }
}

void GlobalModes::gather(const Complex* local, Complex* global) {
  comm_.gatherv(local, staging_.data(), counts_.data(), 0);
  if (comm_.rank() != 0) return;
  for_each_placement(
      [&](std::size_t g, std::size_t s) { global[g] = staging_[s]; });
}

void GlobalModes::scatter(const Complex* global, Complex* local) {
  if (comm_.rank() == 0) {
    for_each_placement(
        [&](std::size_t g, std::size_t s) { staging_[s] = global[g]; });
  }
  comm_.scatterv(staging_.data(), local, counts_.data(), 0);
}

}  // namespace psdns::transpose
