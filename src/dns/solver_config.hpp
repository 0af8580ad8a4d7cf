#pragma once
// Solver configuration shared by the spectral engine, the equation systems
// and every layer above them (driver, service). Split out of
// spectral_core.hpp when the physics moved behind the EquationSystem
// interface: the config names *which* system integrates the fields plus the
// per-system physical parameters, and *which* FFT backend the engine builds
// (decomposition and process grid), while the engine-level knobs (grid,
// scheme, dealiasing, batching) stay system-agnostic.

#include <cstddef>
#include <source_location>
#include <string>
#include <vector>

#include "transpose/views.hpp"
#include "util/check.hpp"

namespace psdns::dns {

enum class TimeScheme { RK2, RK4 };

using transpose::Decomposition;

/// Which equation set the engine integrates. Each value maps to one
/// EquationSystem implementation in src/dns/systems/.
enum class SystemType {
  NavierStokes,  // incompressible NS + passive scalars (the seed physics)
  RotatingNS,    // + Coriolis force, folded exactly into the linear factor
  Boussinesq,    // + active buoyancy coupling scalar 0 (gravity along z)
  Mhd,           // + induction equation (Elsasser-form nonlinearity)
};

const char* to_string(SystemType s);
SystemType parse_system_type(const std::string& name);

/// Typed configuration error for physically meaningless forcing bands:
/// empty or inverted shells and non-positive injection power used to be
/// accepted and silently produced zero forcing.
class ForcingError : public util::Error {
 public:
  explicit ForcingError(const std::string& what,
                        std::source_location loc =
                            std::source_location::current())
      : util::Error("forcing config: " + what, loc) {}
};

struct ForcingConfig {
  bool enabled = false;
  int klo = 1;          // forced band, inclusive
  int khi = 2;
  double power = 0.1;   // energy injection rate
};

/// Rejects empty/inverted bands (klo < 1 or khi < klo) and non-positive
/// injection power when forcing is enabled. Throws ForcingError; callers
/// run it at config parse time on every rank so the whole group rejects
/// the job together instead of silently forcing nothing.
void validate_forcing(const ForcingConfig& f);

/// One passive scalar. With a uniform mean gradient G along y, the solved
/// fluctuation theta' obeys d theta'/dt + u.grad theta' = D lap theta' - G v,
/// the standard configuration for statistically stationary mixing.
struct ScalarConfig {
  double schmidt = 1.0;        // Sc = nu / D
  double mean_gradient = 0.0;  // G (0 = freely decaying scalar)
};

struct SolverConfig {
  std::size_t n = 32;
  double viscosity = 0.01;
  // --- FFT backend -----------------------------------------------------
  Decomposition decomposition = Decomposition::Slab;
  int pr = 1;  // Pencil: process-grid rows (on-node communicator in production)
  int pc = 1;  // Pencil: process-grid columns; pr * pc = rank count
  TimeScheme scheme = TimeScheme::RK2;
  bool phase_shift_dealias = false;  // Rogallo shifts on top of truncation
  int pencils = 1;                   // np: pencils per slab (GPU batching)
  int pencils_per_a2a = 1;           // Q: pencils aggregated per all-to-all
  ForcingConfig forcing;
  std::vector<ScalarConfig> scalars;

  // --- equation system selection -------------------------------------
  SystemType system = SystemType::NavierStokes;
  double rotation_omega = 0.0;   // RotatingNS: frame rotation rate about z
  double brunt_vaisala = 1.0;    // Boussinesq: buoyancy frequency N
  double resistivity = 0.0;      // Mhd: magnetic diffusivity eta (0 -> nu)
};

/// One-step flow statistics (all collective to compute).
struct Diagnostics {
  double energy = 0.0;        // 1/2 <u.u>
  double dissipation = 0.0;   // 2 nu sum k^2 E(k)
  double u_max = 0.0;         // max pointwise |u_i|
  double max_divergence = 0.0;
  double taylor_scale = 0.0;      // lambda = sqrt(15 nu u'^2 / eps)
  double reynolds_lambda = 0.0;   // u' lambda / nu
  double kolmogorov_eta = 0.0;    // (nu^3/eps)^(1/4)
};

/// Scalar-field statistics (collective).
struct ScalarDiagnostics {
  double variance = 0.0;       // 1/2 <theta^2>
  double dissipation = 0.0;    // chi = 2 D sum k^2 E_theta(k)
  double flux_y = 0.0;         // <v theta> (down-gradient transport)
};

/// Skewness and flatness of the longitudinal velocity derivatives.
/// A gaussian field has skewness 0 and flatness 3; developed turbulence
/// shows ~-0.5 and > 4 (small-scale intermittency - the "extreme events"
/// the record-size simulations are run to quantify).
struct DerivativeMoments {
  double skewness = 0.0;
  double flatness = 0.0;
};

}  // namespace psdns::dns
