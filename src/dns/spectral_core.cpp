#include "dns/spectral_core.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace psdns::dns {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Deterministic per-grid-point gaussian-ish noise from the global index.
double noise(std::uint64_t seed, std::size_t i, std::size_t j, std::size_t k,
             int component) {
  util::SplitMix64 sm(seed ^ (i + 1) * 0x9E3779B97F4A7C15ULL ^
                      (j + 1) * 0xC2B2AE3D27D4EB4FULL ^
                      (k + 1) * 0x165667B19E3779F9ULL ^
                      static_cast<std::uint64_t>(component + 1) *
                          0xFF51AFD7ED558CCDULL);
  // Sum of 4 uniforms, centered: close enough to gaussian for an IC that is
  // reshaped spectrally anyway.
  double s = 0.0;
  for (int t = 0; t < 4; ++t) {
    s += static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  }
  return s - 2.0;
}
}  // namespace

SpectralEngine::SpectralEngine(comm::Communicator& comm, SolverConfig config)
    : comm_(comm),
      config_(std::move(config)),
      fft_(transpose::make_dist_fft(comm, config_.n, config_.decomposition,
                                    config_.pr, config_.pc)) {
  PSDNS_REQUIRE(config_.n >= 4, "grid too small for a DNS");
  PSDNS_REQUIRE(config_.viscosity > 0.0, "viscosity must be positive");
  PSDNS_REQUIRE(config_.pencils >= 1 && config_.pencils_per_a2a >= 1,
                "bad pencil batching");
  validate_forcing(config_.forcing);
  // Boussinesq's buoyancy field rides in the scalar slot: materialize it
  // (Pr = 1, no mean gradient - the stratification is brunt_vaisala's job)
  // when the caller did not configure scalars explicitly.
  if (config_.system == SystemType::Boussinesq && config_.scalars.empty()) {
    config_.scalars.push_back(ScalarConfig{1.0, 0.0});
  }
  for (const auto& sc : config_.scalars) {
    PSDNS_REQUIRE(sc.schmidt > 0.0, "Schmidt number must be positive");
  }
  system_ = make_equation_system(config_);

  fft_->set_batching(config_.pencils, config_.pencils_per_a2a);
  view_ = fft_->mode_view();
  pview_ = fft_->phys_view();
  spec_ = fft_->spectral_elems();
  phys_elems_ = fft_->physical_elems();
  const std::size_t nf = field_count();
  nprod_ = system_->product_count();

  state_.resize(nf);
  for (auto& c : state_) c.assign(spec_, Complex{0.0, 0.0});

  // Check out every steady-state scratch block now: step() only reuses.
  rhs_a_.ensure(nf * spec_);
  rhs_b_.ensure(nf * spec_);
  stage_.ensure(nf * spec_);
  if (config_.scheme == TimeScheme::RK4) k_.ensure(4 * nf * spec_);
  if (config_.phase_shift_dealias) shifted_.ensure(nf * spec_);
  prod_hat_.ensure(nprod_ * spec_);
  phys_.ensure((nf + nprod_) * phys_elems_);

  state_ptrs_.resize(nf);
  state_mut_.resize(nf);
  stage_ptrs_.resize(nf);
  stage_mut_.resize(nf);
  spec_in_.resize(nf);
  rhs_a_ptrs_.resize(nf);
  rhs_b_ptrs_.resize(nf);
  phys_out_.resize(nf);
  field_phys_.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    state_ptrs_[f] = state_[f].data();
    state_mut_[f] = state_[f].data();
    stage_ptrs_[f] = block(stage_, f);
    stage_mut_[f] = block(stage_, f);
    rhs_a_ptrs_[f] = block(rhs_a_, f);
    rhs_b_ptrs_[f] = block(rhs_b_, f);
    phys_out_[f] = phys_block(f);
    field_phys_[f] = phys_block(f);
  }
  if (config_.scheme == TimeScheme::RK4) {
    k_ptrs_.resize(4 * nf);
    for (std::size_t q = 0; q < 4; ++q) {
      for (std::size_t f = 0; f < nf; ++f) {
        k_ptrs_[q * nf + f] = k_.data() + (q * nf + f) * spec_;
      }
    }
  }
  prod_in_.resize(nprod_);
  prod_out_.resize(nprod_);
  prod_spec_.resize(nprod_);
  prod_spec_const_.resize(nprod_);
  for (std::size_t t = 0; t < nprod_; ++t) {
    prod_in_[t] = phys_block(nf + t);
    prod_out_[t] = phys_block(nf + t);
    prod_spec_[t] = block(prod_hat_, t);
    prod_spec_const_[t] = block(prod_hat_, t);
  }
}

void SpectralEngine::apply_dealias(Complex* field) {
  if (config_.phase_shift_dealias) {
    dealias_spherical(view_, field,
                      std::sqrt(2.0) * static_cast<double>(config_.n) / 3.0);
  } else {
    dealias_truncate(view_, field);
  }
}

void SpectralEngine::finalize_vector_ic(std::size_t base) {
  const std::size_t n = config_.n;
  const double scale = 1.0 / (static_cast<double>(n) * n * n);
  for (std::size_t c = 0; c < 3; ++c) {
    Complex* s = state_[base + c].data();
    for (std::size_t i = 0; i < spec_; ++i) s[i] *= scale;
  }
  project(view_, state_[base].data(), state_[base + 1].data(),
          state_[base + 2].data());
  for (std::size_t c = 0; c < 3; ++c) {
    apply_dealias(state_[base + c].data());
  }
}

void SpectralEngine::finalize_velocity_ic() {
  finalize_vector_ic(0);
  time_ = 0.0;
  steps_ = 0;
}

void SpectralEngine::init_from_function(
    const std::function<std::array<double, 3>(double, double, double)>& f) {
  const double cell = kTwoPi / static_cast<double>(config_.n);
  Real* px = phys_block(0);
  Real* py = phys_block(1);
  Real* pz = phys_block(2);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    const auto u = f(cell * static_cast<double>(xi),
                     cell * static_cast<double>(yi),
                     cell * static_cast<double>(zi));
    px[idx] = u[0];
    py[idx] = u[1];
    pz[idx] = u[2];
  });
  const Real* phys3[3] = {px, py, pz};
  Complex* spec3[3] = {state_[0].data(), state_[1].data(), state_[2].data()};
  fft_->forward(std::span<const Real* const>(phys3, 3),
                std::span<Complex* const>(spec3, 3));
  finalize_velocity_ic();
}

void SpectralEngine::init_taylor_green() {
  init_from_function([](double x, double y, double) {
    return std::array<double, 3>{std::sin(x) * std::cos(y),
                                 -std::cos(x) * std::sin(y), 0.0};
  });
}

void SpectralEngine::shape_vector_spectrum(std::size_t base, double k_peak,
                                           double energy) {
  // Shape the shell spectrum to E(k) ~ (k/k0)^4 exp(-2 (k/k0)^2).
  const auto current =
      energy_spectrum(view_, comm_, state_[base].data(),
                      state_[base + 1].data(), state_[base + 2].data());
  // Shaped over shells 0..N/2; the modes beyond (the truncation corners)
  // start at zero.
  std::vector<double> gain(view_.n / 2 + 1, 0.0);
  double target_total = 0.0;
  for (std::size_t s = 1; s < gain.size(); ++s) {
    const double kr = static_cast<double>(s) / k_peak;
    const double target = std::pow(kr, 4.0) * std::exp(-2.0 * kr * kr);
    target_total += target;
    if (current[s] > 1e-300) gain[s] = std::sqrt(target / current[s]);
  }
  const double norm = std::sqrt(energy / target_total);
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const auto shell = static_cast<std::size_t>(std::lround(kmag));
    const double g = shell < gain.size() ? gain[shell] * norm : 0.0;
    state_[base][idx] *= g;
    state_[base + 1][idx] *= g;
    state_[base + 2][idx] *= g;
  });
}

void SpectralEngine::init_isotropic(std::uint64_t seed, double k_peak,
                                    double energy) {
  PSDNS_REQUIRE(k_peak > 0.0 && energy > 0.0, "bad isotropic IC parameters");
  // White noise per component, keyed on global indices: identical physics
  // for every rank count and decomposition.
  Real* px = phys_block(0);
  Real* py = phys_block(1);
  Real* pz = phys_block(2);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    px[idx] = noise(seed, xi, yi, zi, 0);
    py[idx] = noise(seed, xi, yi, zi, 1);
    pz[idx] = noise(seed, xi, yi, zi, 2);
  });
  const Real* phys3[3] = {px, py, pz};
  Complex* spec3[3] = {state_[0].data(), state_[1].data(), state_[2].data()};
  fft_->forward(std::span<const Real* const>(phys3, 3),
                std::span<Complex* const>(spec3, 3));
  finalize_velocity_ic();
  shape_vector_spectrum(0, k_peak, energy);
}

void SpectralEngine::init_scalar_from_function(
    int s, const std::function<double(double, double, double)>& f) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  const std::size_t n = config_.n;
  const double cell = kTwoPi / static_cast<double>(n);
  Real* phys = phys_block(0);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    phys[idx] = f(cell * static_cast<double>(xi),
                  cell * static_cast<double>(yi),
                  cell * static_cast<double>(zi));
  });
  auto& theta = state_[static_cast<std::size_t>(3 + s)];
  fft_->forward(std::span<const Real>(phys, phys_elems_),
                std::span<Complex>(theta.data(), theta.size()));
  const double scale = 1.0 / (static_cast<double>(n) * n * n);
  for (auto& z : theta) z *= scale;
  apply_dealias(theta.data());
}

void SpectralEngine::init_scalar_isotropic(int s, std::uint64_t seed,
                                           double k_peak, double variance) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  PSDNS_REQUIRE(k_peak > 0.0 && variance > 0.0, "bad scalar IC parameters");
  const std::size_t n = config_.n;
  Real* phys = phys_block(0);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    phys[idx] = noise(seed, xi, yi, zi, 100 + s);
  });
  auto& theta = state_[static_cast<std::size_t>(3 + s)];
  fft_->forward(std::span<const Real>(phys, phys_elems_),
                std::span<Complex>(theta.data(), theta.size()));
  const double scale = 1.0 / (static_cast<double>(n) * n * n);
  for (auto& z : theta) z *= scale;
  // Zero-mean fluctuation: only the rank owning the k = 0 mode holds it.
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    if (kx == 0 && ky == 0 && kz == 0) theta[idx] = Complex{0.0, 0.0};
  });
  apply_dealias(theta.data());

  const auto current = field_spectrum(view_, comm_, theta.data());
  std::vector<double> gain(view_.n / 2 + 1, 0.0);  // as for the velocity
  double target_total = 0.0;
  for (std::size_t sh = 1; sh < gain.size(); ++sh) {
    const double kr = static_cast<double>(sh) / k_peak;
    const double target = std::pow(kr, 4.0) * std::exp(-2.0 * kr * kr);
    target_total += target;
    if (current[sh] > 1e-300) gain[sh] = std::sqrt(target / current[sh]);
  }
  const double norm = std::sqrt(variance / target_total);
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const auto shell = static_cast<std::size_t>(std::lround(kmag));
    theta[idx] *= shell < gain.size() ? gain[shell] * norm : 0.0;
  });
}

void SpectralEngine::init_magnetic_isotropic(std::uint64_t seed, double k_peak,
                                             double energy) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  PSDNS_REQUIRE(k_peak > 0.0 && energy > 0.0, "bad magnetic IC parameters");
  const auto base = static_cast<std::size_t>(mb);

  // Preserve any previously imposed uniform mean field across the refill.
  Complex b0[3] = {};
  std::size_t zero_idx = spec_;  // sentinel: this rank may not own k = 0
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    if (kx == 0 && ky == 0 && kz == 0) zero_idx = idx;
  });
  if (zero_idx < spec_) {
    for (std::size_t c = 0; c < 3; ++c) b0[c] = state_[base + c][zero_idx];
  }

  Real* px = phys_block(0);
  Real* py = phys_block(1);
  Real* pz = phys_block(2);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    px[idx] = noise(seed, xi, yi, zi, 200);
    py[idx] = noise(seed, xi, yi, zi, 201);
    pz[idx] = noise(seed, xi, yi, zi, 202);
  });
  const Real* phys3[3] = {px, py, pz};
  Complex* spec3[3] = {state_[base].data(), state_[base + 1].data(),
                       state_[base + 2].data()};
  fft_->forward(std::span<const Real* const>(phys3, 3),
                std::span<Complex* const>(spec3, 3));
  finalize_vector_ic(base);
  shape_vector_spectrum(base, k_peak, energy);

  if (zero_idx < spec_) {
    for (std::size_t c = 0; c < 3; ++c) state_[base + c][zero_idx] = b0[c];
  }
}

void SpectralEngine::init_magnetic_from_function(
    const std::function<std::array<double, 3>(double, double, double)>& f) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  const auto base = static_cast<std::size_t>(mb);
  const double cell = kTwoPi / static_cast<double>(config_.n);
  Real* px = phys_block(0);
  Real* py = phys_block(1);
  Real* pz = phys_block(2);
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    const auto b = f(cell * static_cast<double>(xi),
                     cell * static_cast<double>(yi),
                     cell * static_cast<double>(zi));
    px[idx] = b[0];
    py[idx] = b[1];
    pz[idx] = b[2];
  });
  const Real* phys3[3] = {px, py, pz};
  Complex* spec3[3] = {state_[base].data(), state_[base + 1].data(),
                       state_[base + 2].data()};
  fft_->forward(std::span<const Real* const>(phys3, 3),
                std::span<Complex* const>(spec3, 3));
  finalize_vector_ic(base);
}

void SpectralEngine::set_uniform_magnetic_field(
    const std::array<double, 3>& b0) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  const auto base = static_cast<std::size_t>(mb);
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    if (kx == 0 && ky == 0 && kz == 0) {
      for (std::size_t c = 0; c < 3; ++c) {
        state_[base + c][idx] = Complex{b0[c], 0.0};
      }
    }
  });
}

void SpectralEngine::restore(std::span<const Complex* const> fields, double t,
                             std::int64_t steps) {
  PSDNS_REQUIRE(fields.size() == field_count(),
                "restore needs 3 velocity components plus every extra field");
  for (std::size_t f = 0; f < field_count(); ++f) {
    std::copy(fields[f], fields[f] + spec_, state_[f].begin());
  }
  time_ = t;
  steps_ = steps;
  last_umax_ = 0.0;
}

void SpectralEngine::compute_rhs(const Complex* const* in, Complex* const* rhs,
                                 bool with_forcing) {
  const std::size_t n = config_.n;
  const std::size_t nf = field_count();
  const double inv_n3 = 1.0 / (static_cast<double>(n) * n * n);

  // Optional Rogallo phase shift: alternate RK substages between the
  // unshifted grid and a grid shifted by half a cell, so the leading
  // aliasing contributions cancel across the substages; the truncation
  // radius is then the larger spherical sqrt(2)/3 N.
  double delta[3] = {0.0, 0.0, 0.0};
  const bool shift = config_.phase_shift_dealias && (rhs_evals_++ % 2 == 1);
  if (shift) {
    const double half_cell = std::numbers::pi / static_cast<double>(n);
    delta[0] = delta[1] = delta[2] = half_cell;
  }

  // 1. All fields to physical space (one multi-variable transform, exactly
  //    how the production code amortizes message size over variables).
  if (shift) {
    for (std::size_t f = 0; f < nf; ++f) {
      Complex* sh = block(shifted_, f);
      std::copy(in[f], in[f] + spec_, sh);
      phase_shift(view_, sh, delta, +1);
      spec_in_[f] = sh;
    }
  } else {
    for (std::size_t f = 0; f < nf; ++f) spec_in_[f] = in[f];
  }
  fft_->inverse(std::span<const Complex* const>(spec_in_.data(), nf),
                std::span<Real* const>(phys_out_.data(), nf));

  // 2. Pointwise max signal speed (CFL bookkeeping): the velocity, plus the
  //    magnetic field for MHD (b is in Alfven-velocity units, so this keeps
  //    the estimate honest for Alfven waves too).
  double umax = 0.0;
  for (int c = 0; c < 3; ++c) {
    const Real* p = phys_block(static_cast<std::size_t>(c));
    for (std::size_t idx = 0; idx < phys_elems_; ++idx) {
      umax = std::max(umax, std::abs(p[idx]));
    }
  }
  if (const int mb = magnetic_base(); mb >= 0) {
    for (int c = 0; c < 3; ++c) {
      const Real* p = phys_block(static_cast<std::size_t>(mb + c));
      for (std::size_t idx = 0; idx < phys_elems_; ++idx) {
        umax = std::max(umax, std::abs(p[idx]));
      }
    }
  }
  last_umax_ = comm_.allreduce_max(umax);

  // 3. The system's products in physical space.
  system_->form_products(field_phys_.data(), prod_out_.data(), phys_elems_);

  // 4. Products to spectral space (one multi-variable transform).
  fft_->forward(std::span<const Real* const>(prod_in_.data(), nprod_),
                std::span<Complex* const>(prod_spec_.data(), nprod_));
  for (std::size_t t = 0; t < nprod_; ++t) {
    Complex* p = block(prod_hat_, t);
    for (std::size_t i = 0; i < spec_; ++i) p[i] *= inv_n3;
    if (shift) phase_shift(view_, p, delta, -1);
    apply_dealias(p);
  }

  // 5. The system's spectral RHS from the dealiased product spectra.
  system_->assemble_rhs(view_, in, prod_spec_const_.data(), rhs);

  // 6. Velocity-proportional band forcing with fixed injection power.
  if (with_forcing && config_.forcing.enabled) {
    const double eband =
        band_energy(view_, comm_, in[0], in[1], in[2], config_.forcing.klo,
                    config_.forcing.khi);
    if (eband > 1e-12) {
      const double coeff = config_.forcing.power / (2.0 * eband);
      add_band_forcing(view_, rhs[0], rhs[1], rhs[2], in[0], in[1], in[2],
                       config_.forcing.klo, config_.forcing.khi, coeff);
    }
  }
}

void SpectralEngine::step(double dt) {
  PSDNS_REQUIRE(dt > 0.0, "dt must be positive");
  const double h = dt / 2.0;
  const std::size_t nf = field_count();

  // The linear propagator E (viscous/diffusive decay plus any system terms
  // such as the Coriolis rotation) is applied to whole field *sets* so
  // systems whose linear operator couples components stay exact.
  if (config_.scheme == TimeScheme::RK2) {
    // Midpoint RK2 with exact linear terms:
    //   u_mid = E_h (u + dt/2 N(u));  u_new = E_f u + dt E_h N(u_mid).
    compute_rhs(state_ptrs_.data(), rhs_a_ptrs_.data());
    for (std::size_t f = 0; f < nf; ++f) {
      const Complex* s = state_[f].data();
      const Complex* ra = block(rhs_a_, f);
      Complex* st = block(stage_, f);
      for (std::size_t i = 0; i < spec_; ++i) st[i] = s[i] + h * ra[i];
    }
    apply_linear(stage_mut_.data(), h);
    compute_rhs(stage_ptrs_.data(), rhs_b_ptrs_.data());
    apply_linear(state_mut_.data(), dt);   // E_f u
    apply_linear(rhs_b_ptrs_.data(), h);   // E_h N(u_mid)
    for (std::size_t f = 0; f < nf; ++f) {
      const Complex* rb = block(rhs_b_, f);
      Complex* s = state_[f].data();
      for (std::size_t i = 0; i < spec_; ++i) s[i] += dt * rb[i];
    }
  } else {
    // Integrating-factor RK4 (classical RK4 on v = E(-t) u):
    //   k1 = N(u)
    //   u1 = E_h (u + dt/2 k1);      k2 = N(u1)
    //   u2 = E_h u + dt/2 k2;        k3 = N(u2)
    //   u3 = E_f u + dt E_h k3;      k4 = N(u3)
    //   u+ = E_f u + dt/6 (E_f k1 + 2 E_h (k2 + k3) + k4)
    Complex* const* k1 = k_ptrs_.data();
    Complex* const* k2 = k_ptrs_.data() + nf;
    Complex* const* k3 = k_ptrs_.data() + 2 * nf;
    Complex* const* k4 = k_ptrs_.data() + 3 * nf;
    compute_rhs(state_ptrs_.data(), k1);
    for (std::size_t f = 0; f < nf; ++f) {
      const Complex* s = state_[f].data();
      Complex* st = block(stage_, f);
      for (std::size_t i = 0; i < spec_; ++i) st[i] = s[i] + h * k1[f][i];
    }
    apply_linear(stage_mut_.data(), h);
    compute_rhs(stage_ptrs_.data(), k2);
    for (std::size_t f = 0; f < nf; ++f) {
      std::copy(state_[f].begin(), state_[f].end(), block(stage_, f));
    }
    apply_linear(stage_mut_.data(), h);  // E_h u
    for (std::size_t f = 0; f < nf; ++f) {
      Complex* st = block(stage_, f);
      for (std::size_t i = 0; i < spec_; ++i) st[i] += h * k2[f][i];
    }
    compute_rhs(stage_ptrs_.data(), k3);
    for (std::size_t f = 0; f < nf; ++f) {
      std::copy(state_[f].begin(), state_[f].end(), block(stage_, f));
    }
    apply_linear(stage_mut_.data(), dt);  // E_f u
    apply_linear(k3, h);                  // k3 <- E_h k3
    for (std::size_t f = 0; f < nf; ++f) {
      Complex* st = block(stage_, f);
      for (std::size_t i = 0; i < spec_; ++i) st[i] += dt * k3[f][i];
    }
    compute_rhs(stage_ptrs_.data(), k4);
    apply_linear(k1, dt);  // E_f k1
    apply_linear(k2, h);   // E_h k2
    apply_linear(state_mut_.data(), dt);
    for (std::size_t f = 0; f < nf; ++f) {
      Complex* s = state_[f].data();
      for (std::size_t i = 0; i < spec_; ++i) {
        s[i] += dt / 6.0 *
                (k1[f][i] + 2.0 * k2[f][i] + 2.0 * k3[f][i] + k4[f][i]);
      }
    }
  }

  time_ += dt;
  ++steps_;
}

double SpectralEngine::cfl_dt(double cfl) {
  if (last_umax_ <= 0.0) {
    // No RHS evaluated yet: measure once via a throwaway evaluation.
    compute_rhs(state_ptrs_.data(), rhs_a_ptrs_.data());
  }
  const double dx = kTwoPi / static_cast<double>(config_.n);
  return last_umax_ > 0.0 ? cfl * dx / last_umax_ : 1e9;
}

Diagnostics SpectralEngine::diagnostics() {
  Diagnostics d;
  d.energy = kinetic_energy(view_, comm_, state_[0].data(), state_[1].data(),
                            state_[2].data());
  d.dissipation = dissipation(view_, comm_, state_[0].data(),
                              state_[1].data(), state_[2].data(),
                              config_.viscosity);
  d.max_divergence = max_divergence(view_, comm_, state_[0].data(),
                                    state_[1].data(), state_[2].data());
  d.u_max = last_umax_;
  if (d.dissipation > 1e-300) {
    const double uprime2 = 2.0 * d.energy / 3.0;
    d.taylor_scale =
        std::sqrt(15.0 * config_.viscosity * uprime2 / d.dissipation);
    d.reynolds_lambda =
        std::sqrt(uprime2) * d.taylor_scale / config_.viscosity;
    d.kolmogorov_eta = std::pow(
        config_.viscosity * config_.viscosity * config_.viscosity /
            d.dissipation,
        0.25);
  }
  return d;
}

ScalarDiagnostics SpectralEngine::scalar_diagnostics(int s) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  const auto si = static_cast<std::size_t>(3 + s);
  ScalarDiagnostics d;
  d.variance = field_variance(view_, comm_, state_[si].data());
  d.dissipation =
      field_dissipation(view_, comm_, state_[si].data(), diffusivity(si));
  d.flux_y =
      cospectrum_total(view_, comm_, state_[1].data(), state_[si].data());
  return d;
}

std::vector<NamedValue> SpectralEngine::system_diagnostics() {
  return system_->diagnostics(view_, comm_, state_ptrs_.data());
}

std::vector<double> SpectralEngine::spectrum() {
  return energy_spectrum(view_, comm_, state_[0].data(), state_[1].data(),
                         state_[2].data());
}

std::vector<double> SpectralEngine::scalar_spectrum(int s) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  return field_spectrum(view_, comm_,
                        state_[static_cast<std::size_t>(3 + s)].data());
}

std::vector<std::pair<std::string, std::vector<double>>>
SpectralEngine::named_spectra() {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  for (const auto& group : system_->spectra()) {
    std::vector<double> sum;
    for (const int f : group.fields) {
      PSDNS_REQUIRE(f >= 0 && static_cast<std::size_t>(f) < field_count(),
                    "spectrum group references an unknown field");
      auto one = field_spectrum(view_, comm_,
                                state_[static_cast<std::size_t>(f)].data());
      if (sum.empty()) {
        sum = std::move(one);
      } else {
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += one[i];
      }
    }
    out.emplace_back(group.name, std::move(sum));
  }
  return out;
}

std::vector<double> SpectralEngine::transfer_spectrum() {
  compute_rhs(state_ptrs_.data(), rhs_a_ptrs_.data(), /*with_forcing=*/false);
  std::vector<double> shells(spectrum_shells(config_.n), 0.0);
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    const double kmag = std::sqrt(static_cast<double>(kx) * kx +
                                  static_cast<double>(ky) * ky +
                                  static_cast<double>(kz) * kz);
    const auto shell = static_cast<std::size_t>(std::lround(kmag));
    if (shell >= shells.size()) return;
    // d(1/2 |u|^2)/dt contribution of the nonlinear term.
    double rate = 0.0;
    for (int c = 0; c < 3; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      rate += (std::conj(state_[ci][idx]) * rhs_a_ptrs_[ci][idx]).real();
    }
    shells[shell] += mode_weight(kx, view_.n) * rate;
  });
  comm_.allreduce_sum(shells.data(), shells.data(), shells.size());
  return shells;
}

DerivativeMoments SpectralEngine::derivative_moments() {
  // Longitudinal derivatives via spectral differentiation (du/dx needs
  // i*kx, dv/dy i*ky, dw/dz i*kz), then pointwise moments in physical
  // space. The stage block doubles as gradient scratch (never live between
  // steps).
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    const Complex iu{0.0, 1.0};
    block(stage_, 0)[idx] = iu * static_cast<double>(kx) * state_[0][idx];
    block(stage_, 1)[idx] = iu * static_cast<double>(ky) * state_[1][idx];
    block(stage_, 2)[idx] = iu * static_cast<double>(kz) * state_[2][idx];
  });
  const Complex* spec3[3] = {block(stage_, 0), block(stage_, 1),
                             block(stage_, 2)};
  Real* phys3[3] = {phys_block(0), phys_block(1), phys_block(2)};
  fft_->inverse(std::span<const Complex* const>(spec3, 3),
                std::span<Real* const>(phys3, 3));

  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (int c = 0; c < 3; ++c) {
    const Real* p = phys_block(static_cast<std::size_t>(c));
    for (std::size_t idx = 0; idx < phys_elems_; ++idx) {
      const double g2 = p[idx] * p[idx];
      m2 += g2;
      m3 += g2 * p[idx];
      m4 += g2 * g2;
    }
  }
  double sums[3] = {m2, m3, m4};
  comm_.allreduce_sum(sums, sums, 3);
  const double count =
      3.0 * static_cast<double>(config_.n) * config_.n * config_.n;
  m2 = sums[0] / count;
  m3 = sums[1] / count;
  m4 = sums[2] / count;
  DerivativeMoments out;
  if (m2 > 1e-300) {
    out.skewness = m3 / std::pow(m2, 1.5);
    out.flatness = m4 / (m2 * m2);
  }
  return out;
}

double SpectralEngine::derivative_skewness() {
  return derivative_moments().skewness;
}

}  // namespace psdns::dns
