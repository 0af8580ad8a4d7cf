#pragma once
// Spectral-space physics of Eq. 2: solenoidal projection, 2/3-rule
// dealiasing, exact viscous integrating factor, nonlinear RHS assembly from
// transformed products, and shell-averaged statistics. All operations are
// layout-generic over a ModeView and are shared by the slab solver and the
// pencil baseline.

#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "fft/types.hpp"

namespace psdns::dns {

using fft::Complex;
using fft::Real;

/// Applies the solenoidal projection P_ij = delta_ij - k_i k_j / k^2 to the
/// vector field (u, v, w); enforces a zero mean mode.
void project(const ModeView& view, Complex* u, Complex* v, Complex* w);

/// Zeroes every mode with max(|kx|,|ky|,|kz|) > (N-1)/3 (strict 2/3-rule
/// truncation, Sec. 2 / Rogallo 1981). Removes quadratic aliasing
/// completely on its own.
void dealias_truncate(const ModeView& view, Complex* field);

/// Zeroes every mode with |k| > kmax (spherical truncation). Used with
/// phase shifting (Rogallo's scheme): the larger radius sqrt(2)/3 N keeps
/// more resolved modes, and the alternating half-cell grid shifts cancel
/// the leading aliasing contributions across RK substages.
void dealias_spherical(const ModeView& view, Complex* field, double kmax);

/// Multiplies by exp(-nu k^2 dt) (exact viscous integration).
void apply_integrating_factor(const ModeView& view, Complex* field, double nu,
                              double dt);

/// out_i = -P_ij * (i k_m T_jm) from the 6 transformed symmetric products
/// T = {t11,t22,t33,t12,t13,t23} of the velocity field: the conservative-
/// form nonlinear term of Eq. 2, projected to the divergence-free plane.
struct ProductSet {
  const Complex* t11;
  const Complex* t22;
  const Complex* t33;
  const Complex* t12;
  const Complex* t13;
  const Complex* t23;
};
void nonlinear_rhs(const ModeView& view, const ProductSet& products,
                   Complex* out_u, Complex* out_v, Complex* out_w);

/// Scalar advection RHS in conservative form: out = -i k . F from the
/// transformed flux vector F = (u theta, v theta, w theta)^. No projection
/// (scalars carry no pressure); dealias separately.
void scalar_rhs(const ModeView& view, const Complex* fx, const Complex* fy,
                const Complex* fz, Complex* out);

/// 1/2 sum w(kx) |f|^2 - the variance functional of one field. Collective.
double field_variance(const ModeView& view, comm::Communicator& comm,
                      const Complex* f);

/// 2 kappa sum w(kx) k^2 (1/2 |f|^2) - scalar dissipation chi. Collective.
double field_dissipation(const ModeView& view, comm::Communicator& comm,
                         const Complex* f, double kappa);

/// Length of the shell spectra: one shell per round(|k|) that a mode kept
/// by the 2/3 truncation can reach (the corner |k| = sqrt(3) (N-1)/3), and
/// never fewer than N/2 + 1, so every dealiased mode is binned.
std::size_t spectrum_shells(std::size_t n);

/// Shell spectrum of 1/2 |f|^2, spectrum_shells(N) shells. Collective.
std::vector<double> field_spectrum(const ModeView& view,
                                   comm::Communicator& comm,
                                   const Complex* f);

/// sum w(kx) Re(conj(a) b) - total cospectrum, e.g. the scalar flux
/// <v theta> when called with (vhat, thetahat). Collective.
double cospectrum_total(const ModeView& view, comm::Communicator& comm,
                        const Complex* a, const Complex* b);

/// Multiplies by the phase factor exp(+- i k . delta) (Rogallo phase-shift
/// dealiasing); sign = +1 or -1, delta in radians per axis.
void phase_shift(const ModeView& view, Complex* field, const double delta[3],
                 int sign);

/// Total kinetic energy (1/2 <|u|^2>) of the local modes; collective sum.
double kinetic_energy(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w);

/// Energy dissipation rate 2 nu sum k^2 E(k); collective.
double dissipation(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   double nu);

/// Shell-averaged energy spectrum: E[s] sums 1/2 |u|^2 over modes with
/// round(|k|) == s, s < spectrum_shells(N). Collective.
std::vector<double> energy_spectrum(const ModeView& view,
                                    comm::Communicator& comm, const Complex* u,
                                    const Complex* v, const Complex* w);

/// max_k |k . u(k)| - divergence residual, should be ~round-off after
/// projection. Collective.
double max_divergence(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w);

/// Energy contained in shells klo <= round(|k|) <= khi. Collective.
double band_energy(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   int klo, int khi);

/// Adds coeff * u to f for modes in the band (velocity-proportional band
/// forcing, see dns/forcing.hpp).
void add_band_forcing(const ModeView& view, Complex* rhs_u, Complex* rhs_v,
                      Complex* rhs_w, const Complex* u, const Complex* v,
                      const Complex* w, int klo, int khi, double coeff);

}  // namespace psdns::dns
