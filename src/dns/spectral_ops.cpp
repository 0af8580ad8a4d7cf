#include "dns/spectral_ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace psdns::dns {

void project(const ModeView& view, Complex* u, Complex* v, Complex* w) {
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k2 = static_cast<double>(kx) * kx +
                      static_cast<double>(ky) * ky +
                      static_cast<double>(kz) * kz;
    if (k2 == 0.0) {
      u[idx] = v[idx] = w[idx] = Complex{0.0, 0.0};
      return;
    }
    const Complex kdotu = static_cast<double>(kx) * u[idx] +
                          static_cast<double>(ky) * v[idx] +
                          static_cast<double>(kz) * w[idx];
    const Complex s = kdotu / k2;
    u[idx] -= static_cast<double>(kx) * s;
    v[idx] -= static_cast<double>(ky) * s;
    w[idx] -= static_cast<double>(kz) * s;
  });
}

void dealias_truncate(const ModeView& view, Complex* field) {
  // Strict 2/3 rule: 3*kmax < N, so that a product component of 2*kmax
  // aliases to -(N - 2*kmax) < -kmax and is removed. (kmax = N/3 exactly
  // would let boundary modes alias back onto the boundary.)
  const int kmax = (static_cast<int>(view.n) - 1) / 3;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    if (std::abs(kx) > kmax || std::abs(ky) > kmax || std::abs(kz) > kmax) {
      field[idx] = Complex{0.0, 0.0};
    }
  });
}

void dealias_spherical(const ModeView& view, Complex* field, double kmax) {
  const double k2max = kmax * kmax;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k2 = static_cast<double>(kx) * kx +
                      static_cast<double>(ky) * ky +
                      static_cast<double>(kz) * kz;
    if (k2 > k2max) field[idx] = Complex{0.0, 0.0};
  });
}

void apply_integrating_factor(const ModeView& view, Complex* field, double nu,
                              double dt) {
  // The factor depends on the integer |k|^2 <= 3 (N/2)^2 alone: one exp per
  // value, not per mode (the same expression, so the same bits).
  thread_local std::vector<double> factor;
  const std::size_t half = view.n / 2;
  factor.resize(3 * half * half + 1);
  for (std::size_t k2 = 0; k2 < factor.size(); ++k2) {
    factor[k2] = std::exp(-nu * static_cast<double>(k2) * dt);
  }
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    field[idx] *= factor[static_cast<std::size_t>(kx * kx + ky * ky + kz * kz)];
  });
}

void nonlinear_rhs(const ModeView& view, const ProductSet& t, Complex* out_u,
                   Complex* out_v, Complex* out_w) {
  const Complex mi{0.0, -1.0};  // -i
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double fx = static_cast<double>(kx);
    const double fy = static_cast<double>(ky);
    const double fz = static_cast<double>(kz);
    // Divergence of the momentum flux: N_i = -i k_m T_im.
    Complex nu_ = mi * (fx * t.t11[idx] + fy * t.t12[idx] + fz * t.t13[idx]);
    Complex nv_ = mi * (fx * t.t12[idx] + fy * t.t22[idx] + fz * t.t23[idx]);
    Complex nw_ = mi * (fx * t.t13[idx] + fy * t.t23[idx] + fz * t.t33[idx]);
    // Projection perpendicular to k (continuity / pressure, Eq. 2).
    const double k2 = fx * fx + fy * fy + fz * fz;
    if (k2 == 0.0) {
      out_u[idx] = out_v[idx] = out_w[idx] = Complex{0.0, 0.0};
      return;
    }
    const Complex kdotn = (fx * nu_ + fy * nv_ + fz * nw_) / k2;
    out_u[idx] = nu_ - fx * kdotn;
    out_v[idx] = nv_ - fy * kdotn;
    out_w[idx] = nw_ - fz * kdotn;
  });
}

void scalar_rhs(const ModeView& view, const Complex* fx, const Complex* fy,
                const Complex* fz, Complex* out) {
  const Complex mi{0.0, -1.0};
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    out[idx] = mi * (static_cast<double>(kx) * fx[idx] +
                     static_cast<double>(ky) * fy[idx] +
                     static_cast<double>(kz) * fz[idx]);
  });
}

void phase_shift(const ModeView& view, Complex* field, const double delta[3],
                 int sign) {
  const double s = sign >= 0 ? 1.0 : -1.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double phase =
        s * (kx * delta[0] + ky * delta[1] + kz * delta[2]);
    field[idx] *= Complex{std::cos(phase), std::sin(phase)};
  });
}

namespace {

/// Sum of w(kx) * f(k, |u|^2-ish) over local modes, then allreduce.
template <class F>
double reduce_modes(const ModeView& view, comm::Communicator& comm,
                    F&& local) {
  double sum = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    sum += local(idx, kx, ky, kz);
  });
  return comm.allreduce_sum(sum);
}

double energy_density(const Complex* u, const Complex* v, const Complex* w,
                      std::size_t idx) {
  return 0.5 * (std::norm(u[idx]) + std::norm(v[idx]) + std::norm(w[idx]));
}

}  // namespace

double kinetic_energy(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w) {
  return reduce_modes(view, comm,
                      [&](std::size_t idx, int kx, int, int) {
                        return mode_weight(kx, view.n) *
                               energy_density(u, v, w, idx);
                      });
}

double dissipation(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   double nu) {
  return 2.0 * nu *
         reduce_modes(view, comm, [&](std::size_t idx, int kx, int ky, int kz) {
           const double k2 = static_cast<double>(kx) * kx +
                             static_cast<double>(ky) * ky +
                             static_cast<double>(kz) * kz;
           return mode_weight(kx, view.n) * k2 * energy_density(u, v, w, idx);
         });
}

std::size_t spectrum_shells(std::size_t n) {
  const double kmax = static_cast<double>((n - 1) / 3);
  const auto corner =
      static_cast<std::size_t>(std::lround(std::sqrt(3.0) * kmax));
  return std::max(n / 2, corner) + 1;
}

std::vector<double> energy_spectrum(const ModeView& view,
                                    comm::Communicator& comm, const Complex* u,
                                    const Complex* v, const Complex* w) {
  std::vector<double> shells(spectrum_shells(view.n), 0.0);
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const auto shell = static_cast<std::size_t>(std::lround(kmag));
    if (shell < shells.size()) {
      shells[shell] += mode_weight(kx, view.n) * energy_density(u, v, w, idx);
    }
  });
  comm.allreduce_sum(shells.data(), shells.data(), shells.size());
  return shells;
}

double max_divergence(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w) {
  double local = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const Complex div = static_cast<double>(kx) * u[idx] +
                        static_cast<double>(ky) * v[idx] +
                        static_cast<double>(kz) * w[idx];
    local = std::max(local, std::abs(div));
  });
  return comm.allreduce_max(local);
}

double band_energy(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   int klo, int khi) {
  return reduce_modes(view, comm, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const int shell = static_cast<int>(std::lround(kmag));
    if (shell < klo || shell > khi) return 0.0;
    return mode_weight(kx, view.n) * energy_density(u, v, w, idx);
  });
}

double field_variance(const ModeView& view, comm::Communicator& comm,
                      const Complex* f) {
  return reduce_modes(view, comm, [&](std::size_t idx, int kx, int, int) {
    return mode_weight(kx, view.n) * 0.5 * std::norm(f[idx]);
  });
}

double field_dissipation(const ModeView& view, comm::Communicator& comm,
                         const Complex* f, double kappa) {
  return 2.0 * kappa *
         reduce_modes(view, comm, [&](std::size_t idx, int kx, int ky, int kz) {
           const double k2 = static_cast<double>(kx) * kx +
                             static_cast<double>(ky) * ky +
                             static_cast<double>(kz) * kz;
           return mode_weight(kx, view.n) * k2 * 0.5 * std::norm(f[idx]);
         });
}

std::vector<double> field_spectrum(const ModeView& view,
                                   comm::Communicator& comm,
                                   const Complex* f) {
  std::vector<double> shells(spectrum_shells(view.n), 0.0);
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const auto shell = static_cast<std::size_t>(std::lround(kmag));
    if (shell < shells.size()) {
      shells[shell] += mode_weight(kx, view.n) * 0.5 * std::norm(f[idx]);
    }
  });
  comm.allreduce_sum(shells.data(), shells.data(), shells.size());
  return shells;
}

double cospectrum_total(const ModeView& view, comm::Communicator& comm,
                        const Complex* a, const Complex* b) {
  return reduce_modes(view, comm, [&](std::size_t idx, int kx, int, int) {
    return mode_weight(kx, view.n) * (std::conj(a[idx]) * b[idx]).real();
  });
}

void add_band_forcing(const ModeView& view, Complex* rhs_u, Complex* rhs_v,
                      Complex* rhs_w, const Complex* u, const Complex* v,
                      const Complex* w, int klo, int khi, double coeff) {
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const int shell = static_cast<int>(std::lround(kmag));
    if (shell < klo || shell > khi) return;
    rhs_u[idx] += coeff * u[idx];
    rhs_v[idx] += coeff * v[idx];
    rhs_w[idx] += coeff * w[idx];
  });
}

}  // namespace psdns::dns
