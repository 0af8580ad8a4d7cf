#pragma once
// The physics-agnostic pseudo-spectral engine: the one solver, running the
// paper's time-stepping machinery (Sec. 2) on either FFT backend. It builds
// and owns its transpose::DistFft3d from SolverConfig::decomposition - the
// slab backend (the paper's "new code") or the pencil backend (the
// synchronous CPU code of Yeung et al. 2015 the paper benchmarks against) -
// and is written only against the backend interface.
//
// The engine owns everything that is the same for every equation set:
// the FFT backend, state and arena scratch, the batched multi-variable DistFft3d round
// trips, strict-2/3 / Rogallo phase-shift dealiasing, RK2/RK4 stepping
// with exact per-field linear propagators, band forcing, checkpoint
// restore, and the generic statistics. Everything that differs between
// equation sets - the field inventory, the physical-space products, the
// spectral RHS, the linear factor, named diagnostics and spectra - lives
// behind the EquationSystem interface (src/dns/systems/), selected by
// SolverConfig::system. Each RK substage evaluates the nonlinear terms
// pseudo-spectrally: inverse-transform all fields, form the system's
// products in physical space, forward-transform them, let the system
// assemble its spectral RHS, and dealias; the linear terms are integrated
// exactly by the system's propagator (viscous/diffusive decay, plus e.g.
// the Coriolis rotation).
//
// All substage scratch (RK stages, product spectra, physical-space blocks,
// optional shifted copies) is checked out of util::WorkspaceArena once at
// construction, and initial conditions are keyed on *global* grid indices
// through the backend's PhysView - so a warmed-up step() performs zero
// heap allocations and both decompositions produce the same physics from
// the same seed.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "dns/solver_config.hpp"
#include "dns/spectral_ops.hpp"
#include "dns/systems/equation_system.hpp"
#include "transpose/dist_fft.hpp"
#include "util/arena.hpp"

namespace psdns::dns {

class SpectralEngine {
 public:
  /// Builds the FFT backend of config.decomposition (make_dist_fft) and
  /// sets its transpose batching (pencils / pencils_per_a2a), validates the
  /// forcing band, normalizes the config for the selected system
  /// (Boussinesq materializes its buoyancy scalar), and builds the
  /// EquationSystem. Collective.
  SpectralEngine(comm::Communicator& comm, SolverConfig config);

  const SolverConfig& config() const { return config_; }
  std::size_t n() const { return config_.n; }
  double time() const { return time_; }
  std::int64_t step_count() const { return steps_; }
  const ModeView& modes() const { return view_; }
  const PhysView& points() const { return pview_; }
  comm::Communicator& communicator() { return comm_; }
  transpose::DistFft3d& fft() { return *fft_; }
  const EquationSystem& system() const { return *system_; }
  int scalar_count() const {
    return static_cast<int>(config_.scalars.size());
  }
  std::size_t field_count() const { return system_->field_count(); }
  std::size_t extra_field_count() const { return system_->extra_fields(); }
  /// State index of the first magnetic component, or -1 (non-MHD systems).
  int magnetic_base() const { return system_->magnetic_base(); }

  /// Field coefficients (backend spectral layout), f in [0, field_count()):
  /// the three velocity components, then the system's extra fields.
  Complex* field(std::size_t f) { return state_[f].data(); }
  const Complex* field(std::size_t f) const { return state_[f].data(); }

  /// Velocity coefficients, component c in {0,1,2}.
  Complex* uhat(int c) { return state_[static_cast<std::size_t>(c)].data(); }
  const Complex* uhat(int c) const {
    return state_[static_cast<std::size_t>(c)].data();
  }

  /// Scalar coefficients, scalar index s in [0, scalar_count()).
  Complex* that(int s) {
    return state_[static_cast<std::size_t>(3 + s)].data();
  }
  const Complex* that(int s) const {
    return state_[static_cast<std::size_t>(3 + s)].data();
  }

  // --- initial conditions (all collective, decomposition-invariant) ---

  /// 2-D Taylor-Green vortex (u = sin x cos y, v = -cos x sin y, w = 0):
  /// an exact Navier-Stokes solution decaying as exp(-2 nu t); used for
  /// validation.
  void init_taylor_green();

  /// Random solenoidal field with spectrum E(k) ~ (k/k0)^4 exp(-2(k/k0)^2),
  /// rescaled to total energy `energy`. Deterministic in `seed` and
  /// independent of the rank count and decomposition.
  void init_isotropic(std::uint64_t seed, double k_peak, double energy);

  /// Fills from a physical-space function u_c(x, y, z), then projects and
  /// dealiases.
  void init_from_function(
      const std::function<std::array<double, 3>(double, double, double)>& f);

  /// Scalar initial conditions: from a physical-space function, or a
  /// random field shaped like the velocity IC with the given variance.
  void init_scalar_from_function(
      int s, const std::function<double(double, double, double)>& f);
  void init_scalar_isotropic(int s, std::uint64_t seed, double k_peak,
                             double variance);

  /// MHD only: random solenoidal magnetic fluctuation with the same
  /// spectral shape as the velocity IC, rescaled to `energy` (Alfven
  /// units). Does not touch the k = 0 mean field or reset the clock.
  void init_magnetic_isotropic(std::uint64_t seed, double k_peak,
                               double energy);

  /// MHD only: sets the uniform mean magnetic field B0 (the k = 0 mode of
  /// the induction fields, preserved exactly by the stepping).
  void set_uniform_magnetic_field(const std::array<double, 3>& b0);

  /// MHD only: fills the magnetic fluctuation from a physical-space
  /// function b_c(x, y, z), then projects and dealiases it.
  void init_magnetic_from_function(
      const std::function<std::array<double, 3>(double, double, double)>& f);

  /// Overwrites the solver state from externally supplied coefficients
  /// (checkpoint restart). `fields` holds the 3 velocity components
  /// followed by extra_field_count() system fields, each this rank's local
  /// spectral block.
  void restore(std::span<const Complex* const> fields, double time,
               std::int64_t steps);

  // --- stepping ---

  /// Advances one step of size dt with the configured scheme.
  void step(double dt);

  /// Largest stable dt estimate: cfl * dx / u_max (collective). For MHD
  /// the pointwise max includes the magnetic field (Alfven units), so the
  /// estimate respects the Alfven-wave CFL as well.
  double cfl_dt(double cfl = 0.5);

  /// Collective statistics of the current state.
  Diagnostics diagnostics();
  ScalarDiagnostics scalar_diagnostics(int s);

  /// System-specific named statistics (collective): e.g. magnetic_energy
  /// and cross_helicity for MHD, buoyancy_flux for Boussinesq. Empty for
  /// plain Navier-Stokes.
  std::vector<NamedValue> system_diagnostics();

  /// Shell spectra of the current state (collective).
  std::vector<double> spectrum();
  std::vector<double> scalar_spectrum(int s);

  /// The system's named shell-spectrum groups (collective): every system
  /// publishes {"kinetic", ...}; MHD adds {"magnetic", ...}, Boussinesq
  /// {"buoyancy", ...}.
  std::vector<std::pair<std::string, std::vector<double>>> named_spectra();

  /// Nonlinear energy-transfer spectrum T(k): the rate at which the
  /// (projected, dealiased) nonlinear term moves energy into shell k.
  /// The truncated system conserves energy, so sum_k T(k) ~ 0; negative at
  /// the energetic scales, positive at the small scales (the cascade).
  /// Collective.
  std::vector<double> transfer_spectrum();

  /// Velocity-derivative skewness <(du/dx)^3> / <(du/dx)^2>^{3/2},
  /// averaged over the three longitudinal derivatives (collective).
  double derivative_skewness();

  DerivativeMoments derivative_moments();

 private:
  using Field = std::vector<Complex>;

  double diffusivity(std::size_t f) const { return system_->diffusivity(f); }

  /// rhs[f] = nonlinear terms of the fields in[f] (+ forcing unless
  /// disabled); updates u_max. Pointer-based so RK stages address
  /// contiguous arena blocks without per-call containers.
  void compute_rhs(const Complex* const* in, Complex* const* rhs,
                   bool with_forcing = true);

  /// Dealiasing mask: cubic 2/3 truncation, or the larger spherical
  /// sqrt(2)/3 N radius when phase shifting is active (Rogallo's scheme).
  void apply_dealias(Complex* field);

  /// The system's exact linear propagator over dt, applied in place to a
  /// full field set (state or an RK stage).
  void apply_linear(Complex* const* fields, double dt) {
    system_->apply_linear(view_, fields, dt);
  }

  /// Normalize, project and dealias a solenoidal vector triple starting at
  /// state index base after a physical-space fill.
  void finalize_vector_ic(std::size_t base);

  /// Normalize, project and dealias the velocity state after a physical-
  /// space fill; resets the clock.
  void finalize_velocity_ic();

  /// Shapes the shell spectrum of the vector triple at `base` to
  /// E(k) ~ (k/k0)^4 exp(-2 (k/k0)^2) with total energy `energy`.
  void shape_vector_spectrum(std::size_t base, double k_peak, double energy);

  Complex* block(util::WorkspaceArena::Handle<Complex>& h,
                 std::size_t f) const {
    return h.data() + f * spec_;
  }
  Real* phys_block(std::size_t f) const {
    return phys_.data() + f * phys_elems_;
  }

  comm::Communicator& comm_;
  SolverConfig config_;
  std::unique_ptr<transpose::DistFft3d> fft_;
  std::unique_ptr<EquationSystem> system_;
  ModeView view_;
  PhysView pview_;
  std::size_t spec_ = 0;        // local spectral elements per field
  std::size_t phys_elems_ = 0;  // local physical elements per field
  std::size_t nprod_ = 0;       // system_->product_count()

  std::vector<Field> state_;  // [u, v, w, <system extra fields>]
  double time_ = 0.0;
  std::int64_t steps_ = 0;
  std::int64_t rhs_evals_ = 0;  // parity selects the Rogallo grid shift
  double last_umax_ = 0.0;

  // Steady-state scratch: contiguous arena blocks checked out once in the
  // constructor (nf fields each; k_ holds the four RK4 stages), so a
  // warmed-up step() never touches the heap.
  util::WorkspaceArena::Handle<Complex> rhs_a_, rhs_b_, stage_;
  util::WorkspaceArena::Handle<Complex> k_;        // RK4 only
  util::WorkspaceArena::Handle<Complex> shifted_;  // phase shifting only
  util::WorkspaceArena::Handle<Complex> prod_hat_;
  util::WorkspaceArena::Handle<Real> phys_;  // nf fields, then products

  // Reused pointer tables for the batched transforms, RK stages, and the
  // EquationSystem callbacks (const and mutable aliases of the same
  // blocks; apply_linear needs mutable field sets).
  std::vector<const Complex*> state_ptrs_, stage_ptrs_, spec_in_;
  std::vector<Complex*> state_mut_, stage_mut_;
  std::vector<Complex*> rhs_a_ptrs_, rhs_b_ptrs_, k_ptrs_;
  std::vector<Real*> phys_out_, prod_out_;
  std::vector<const Real*> prod_in_, field_phys_;
  std::vector<Complex*> prod_spec_;
  std::vector<const Complex*> prod_spec_const_;
};

}  // namespace psdns::dns
