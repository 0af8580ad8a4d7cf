// Tests of the EquationSystem layer (ctest label: equation-systems).
//
// Three groups:
//  - construction/validation: system parsing, make_equation_system's
//    parameter checks, and the typed forcing-band validation;
//  - regression: the NavierStokes system must reproduce the pre-refactor
//    engine diagnostics (values pinned from the last commit before
//    the engine/system split, same configurations the bitwise digest
//    harness used);
//  - physics: each new system is validated against an exact linear-wave
//    solution (inertial, internal-gravity, Alfven - configurations whose
//    nonlinear terms vanish identically, so the analytic mode evolution is
//    exact up to time-integration error), plus slab/pencil equivalence of
//    diagnostics and named spectra.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/pencil_solver.hpp"
#include "dns/solver.hpp"
#include "dns/systems/equation_system.hpp"

namespace psdns::dns {
namespace {

/// Reads one spectral coefficient of field f by global wavenumber,
/// whichever rank owns it (collective; kx must be in [0, n/2]).
Complex probe_mode(SpectralEngine& solver, comm::Communicator& comm,
                   std::size_t f, int kx, int ky, int kz) {
  double re = 0.0, im = 0.0;
  const Complex* a = solver.field(f);
  for_each_mode(solver.modes(), [&](std::size_t idx, int mx, int my, int mz) {
    if (mx == kx && my == ky && mz == kz) {
      re = a[idx].real();
      im = a[idx].imag();
    }
  });
  return {comm.allreduce_sum(re), comm.allreduce_sum(im)};
}

// --- construction and validation -----------------------------------------

TEST(EquationSystem, SystemTypeParseRoundTrip) {
  for (const auto s : {SystemType::NavierStokes, SystemType::RotatingNS,
                       SystemType::Boussinesq, SystemType::Mhd}) {
    EXPECT_EQ(parse_system_type(to_string(s)), s);
  }
  EXPECT_THROW(parse_system_type("ideal_gas"), util::Error);
  EXPECT_THROW(parse_system_type(""), util::Error);
}

TEST(EquationSystem, MakeRejectsMisconfiguredSystems) {
  SolverConfig cfg;
  cfg.system = SystemType::RotatingNS;
  cfg.rotation_omega = 0.0;
  EXPECT_THROW(make_equation_system(cfg), util::Error);

  cfg = SolverConfig{};
  cfg.system = SystemType::Boussinesq;
  cfg.brunt_vaisala = 0.0;
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.brunt_vaisala = 1.0;
  cfg.scalars.clear();  // the engine materializes this before construction
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.scalars.push_back(ScalarConfig{1.0, 0.5});  // buoyancy != mean-gradient
  EXPECT_THROW(make_equation_system(cfg), util::Error);

  cfg = SolverConfig{};
  cfg.system = SystemType::Mhd;
  cfg.scalars.push_back(ScalarConfig{});
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.scalars.clear();
  cfg.resistivity = -0.1;
  EXPECT_THROW(make_equation_system(cfg), util::Error);
}

TEST(EquationSystem, FieldInventoryAndNames) {
  SolverConfig cfg;
  cfg.scalars.push_back(ScalarConfig{});
  const auto ns = make_equation_system(cfg);
  EXPECT_STREQ(ns->name(), "navier_stokes");
  EXPECT_EQ(ns->extra_fields(), 1u);
  EXPECT_EQ(ns->product_count(), 9u);  // 6 velocity + 3 flux
  EXPECT_EQ(ns->magnetic_base(), -1);
  EXPECT_EQ(ns->field_name(0), "u");
  EXPECT_EQ(ns->field_name(3), "scalar0");

  cfg = SolverConfig{};
  cfg.system = SystemType::Mhd;
  const auto mhd = make_equation_system(cfg);
  EXPECT_STREQ(mhd->name(), "mhd");
  EXPECT_EQ(mhd->extra_fields(), 3u);
  EXPECT_EQ(mhd->product_count(), 9u);  // the Elsasser tensor
  EXPECT_EQ(mhd->magnetic_base(), 3);
  EXPECT_EQ(mhd->field_name(3), "bx");
  EXPECT_EQ(mhd->field_name(5), "bz");
  const auto groups = mhd->spectra();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].name, "kinetic");
  EXPECT_EQ(groups[1].name, "magnetic");
}

TEST(Forcing, ValidationRejectsMeaninglessBands) {
  ForcingConfig f;
  f.enabled = false;
  f.klo = 0;  // never read while disabled
  EXPECT_NO_THROW(validate_forcing(f));

  f.enabled = true;
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.klo = 3;
  f.khi = 2;  // inverted band
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.khi = 4;
  f.power = 0.0;
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.power = 0.1;
  EXPECT_NO_THROW(validate_forcing(f));
}

TEST(Forcing, EngineRejectsBadBandAtConstruction) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 0;
    EXPECT_THROW(SlabSolver(comm, cfg), ForcingError);
  });
}

// --- NavierStokes regression against the pre-refactor core ---------------
//
// The two configurations below are the bitwise digest cases used to verify
// the refactor; the diagnostics are pinned from the pre-refactor build.
// The tolerance (1e-11 on O(0.1..1) quantities) absorbs FMA-contraction
// differences between -march=native and baseline builds while failing on
// any genuine change to the arithmetic.

TEST(SystemsRegression, NavierStokesRk2MatchesPreRefactorCore) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.02;
    cfg.scheme = TimeScheme::RK2;
    SlabSolver solver(comm, cfg);
    solver.init_isotropic(7, 3.0, 0.5);
    for (int s = 0; s < 5; ++s) solver.step(0.005);
    const auto d = solver.diagnostics();
    EXPECT_NEAR(d.energy, 0.49395919833698743, 1e-11);
    EXPECT_NEAR(d.dissipation, 0.23987796378171505, 1e-11);
    EXPECT_LT(d.max_divergence, 1e-12);
    // The default system publishes the kinetic spectrum and nothing else.
    EXPECT_TRUE(solver.system_diagnostics().empty());
    const auto spectra = solver.named_spectra();
    ASSERT_EQ(spectra.size(), 1u);
    EXPECT_EQ(spectra[0].first, "kinetic");
    double total = 0.0;
    for (const double e : spectra[0].second) total += e;
    EXPECT_NEAR(total, d.energy, 1e-12);
  });
}

TEST(SystemsRegression, NavierStokesRk4ForcedScalarMatchesPreRefactorCore) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.015;
    cfg.scheme = TimeScheme::RK4;
    cfg.phase_shift_dealias = true;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 1;
    cfg.forcing.khi = 2;
    cfg.forcing.power = 0.2;
    cfg.scalars.push_back(ScalarConfig{0.7, 1.0});
    SlabSolver solver(comm, cfg);
    solver.init_isotropic(11, 3.0, 0.4);
    solver.init_scalar_isotropic(0, 13, 3.0, 0.2);
    for (int s = 0; s < 4; ++s) solver.step(0.004);
    const auto d = solver.diagnostics();
    const auto sd = solver.scalar_diagnostics(0);
    EXPECT_NEAR(d.energy, 0.4009051475146912, 1e-11);
    EXPECT_NEAR(d.dissipation, 0.14310226651962918, 1e-11);
    EXPECT_NEAR(sd.variance, 0.19833057681255509, 1e-11);
    EXPECT_NEAR(sd.flux_y, 0.00014199199641968998, 1e-12);
  });
}

// --- analytic wave validations -------------------------------------------

TEST(RotatingValidation, InertialWaveOscillatesAtTwoOmega) {
  // u = (eps cos z, 0, 0): a single k = (0, 0, 1) mode whose nonlinear
  // term vanishes identically (the field depends only on z and carries no
  // w), so the evolution is exactly the Rodrigues propagator: rotation
  // about khat = zhat at the inertial frequency sigma = 2 Omega kz/|k| =
  // 2 Omega, times viscous decay. The test asserts the closed form to
  // round-off - the Coriolis integration is exact, not order-dt.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double omega = 2.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.system = SystemType::RotatingNS;
    cfg.rotation_omega = omega;
    SlabSolver solver(comm, cfg);
    solver.init_from_function([eps](double, double, double z) {
      return std::array<double, 3>{eps * std::cos(z), 0.0, 0.0};
    });

    const double dt = 0.05;  // exactness must not depend on dt
    const int steps = 20;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;

    const Complex ux = probe_mode(solver, comm, 0, 0, 0, 1);
    const Complex uy = probe_mode(solver, comm, 1, 0, 0, 1);
    const double decay = std::exp(-nu * t);
    EXPECT_NEAR(ux.real(), 0.5 * eps * std::cos(2.0 * omega * t) * decay,
                1e-12);
    EXPECT_NEAR(uy.real(), -0.5 * eps * std::sin(2.0 * omega * t) * decay,
                1e-12);
    EXPECT_NEAR(ux.imag(), 0.0, 1e-13);
    // Rotation is energy-conserving: only viscosity drains the mode.
    EXPECT_NEAR(solver.diagnostics().energy,
                0.25 * eps * eps * decay * decay, 1e-13);
  });
}

TEST(RotatingValidation, HorizontalModeFeelsNoRotation) {
  // For kz = 0 the inertial frequency 2 Omega kz/|k| vanishes: a
  // w = eps cos x mode must decay viscously with no oscillation, however
  // fast the frame spins. This pins the kz/|k| factor of the dispersion
  // relation, not just "some rotation happened".
  comm::run_ranks(1, [](comm::Communicator& comm) {
    const double nu = 0.02, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.system = SystemType::RotatingNS;
    cfg.rotation_omega = 50.0;
    SlabSolver solver(comm, cfg);
    solver.init_from_function([eps](double x, double, double) {
      return std::array<double, 3>{0.0, 0.0, eps * std::cos(x)};
    });
    const double dt = 0.02;
    for (int s = 0; s < 10; ++s) solver.step(dt);
    const Complex w = probe_mode(solver, comm, 2, 1, 0, 0);
    EXPECT_NEAR(w.real(), 0.5 * eps * std::exp(-nu * 0.2), 1e-13);
    EXPECT_NEAR(probe_mode(solver, comm, 0, 1, 0, 0).real(), 0.0, 1e-13);
  });
}

TEST(BoussinesqValidation, InternalWaveOscillatesAtBruntVaisala) {
  // u = (0, 0, eps cos x), theta = 0: a single k = (1, 0, 0) mode (k_h =
  // |k|, so omega = N k_h/|k| = N) whose advection vanishes identically.
  // The exact solution of the remaining linear exchange is
  //   what(t)  =  (eps/2) cos(N t) exp(-nu t)
  //   theta(t) = -(eps/2) sin(N t) exp(-nu t)       (Pr = 1)
  // The buoyancy coupling is integrated explicitly inside the RHS, so the
  // tolerance reflects RK4's O(dt^4) error, not round-off.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double bv = 2.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.scheme = TimeScheme::RK4;
    cfg.system = SystemType::Boussinesq;
    cfg.brunt_vaisala = bv;
    SlabSolver solver(comm, cfg);
    // The engine materializes the buoyancy scalar when none is configured.
    EXPECT_EQ(solver.scalar_count(), 1);
    EXPECT_EQ(solver.extra_field_count(), 1u);
    EXPECT_EQ(solver.system().field_name(3), "buoyancy");
    solver.init_from_function([eps](double x, double, double) {
      return std::array<double, 3>{0.0, 0.0, eps * std::cos(x)};
    });

    const double dt = 0.005;
    const int steps = 200;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;
    const double decay = std::exp(-nu * t);

    const Complex w = probe_mode(solver, comm, 2, 1, 0, 0);
    const Complex th = probe_mode(solver, comm, 3, 1, 0, 0);
    EXPECT_NEAR(w.real(), 0.5 * eps * std::cos(bv * t) * decay, 1e-9);
    EXPECT_NEAR(th.real(), -0.5 * eps * std::sin(bv * t) * decay, 1e-9);

    // buoyancy_flux = <w theta> = -(eps^2/2) sin cos exp(-2 nu t).
    const auto sysd = solver.system_diagnostics();
    ASSERT_EQ(sysd.size(), 1u);
    EXPECT_EQ(sysd[0].name, "buoyancy_flux");
    EXPECT_NEAR(sysd[0].value,
                -0.5 * eps * eps * std::sin(bv * t) * std::cos(bv * t) *
                    decay * decay,
                1e-9);

    const auto spectra = solver.named_spectra();
    ASSERT_EQ(spectra.size(), 2u);
    EXPECT_EQ(spectra[1].first, "buoyancy");
  });
}

TEST(MhdValidation, AlfvenWaveOscillatesAtKDotB) {
  // Uniform mean field B0 zhat plus u = (eps cos z, 0, 0), b' = 0: the
  // fluctuation nonlinearities vanish identically and the Elsasser RHS
  // reduces to the shear-Alfven exchange for the k = (0, 0, 1) mode:
  //   uhat_x(t) =   (eps/2) cos(k.B0 t) exp(-nu t)
  //   bhat_x(t) = i (eps/2) sin(k.B0 t) exp(-nu t)   (eta = nu)
  // i.e. omega = k . B0, energy sloshing between kinetic and magnetic.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double b0 = 1.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.scheme = TimeScheme::RK4;
    cfg.system = SystemType::Mhd;
    cfg.resistivity = 0.0;  // eta = nu
    SlabSolver solver(comm, cfg);
    solver.init_from_function([eps](double, double, double z) {
      return std::array<double, 3>{eps * std::cos(z), 0.0, 0.0};
    });
    solver.set_uniform_magnetic_field({0.0, 0.0, b0});

    const double dt = 0.005;
    const int steps = 200;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;
    const double decay = std::exp(-nu * t);

    const Complex ux = probe_mode(solver, comm, 0, 0, 0, 1);
    const Complex bx = probe_mode(solver, comm, 3, 0, 0, 1);
    EXPECT_NEAR(ux.real(), 0.5 * eps * std::cos(b0 * t) * decay, 1e-9);
    EXPECT_NEAR(bx.imag(), 0.5 * eps * std::sin(b0 * t) * decay, 1e-9);

    // The k = 0 mean field is preserved exactly by the stepping.
    const Complex mean_bz = probe_mode(solver, comm, 5, 0, 0, 0);
    EXPECT_DOUBLE_EQ(mean_bz.real(), b0);

    // Total (kinetic + magnetic fluctuation) energy decays viscously; the
    // exchange itself conserves it.
    const auto sysd = solver.system_diagnostics();
    ASSERT_EQ(sysd.size(), 2u);
    EXPECT_EQ(sysd[0].name, "magnetic_energy");
    const double e_fluct = sysd[0].value - 0.5 * b0 * b0;  // drop the mean
    EXPECT_NEAR(solver.diagnostics().energy + e_fluct,
                0.25 * eps * eps * decay * decay, 1e-9);
  });
}

TEST(MhdValidation, InductionStaysDivergenceFreeInTurbulence) {
  // div b = 0 is structural (antisymmetric induction flux), not projected:
  // it must hold to round-off through fully nonlinear steps, phase-shift
  // dealiasing included.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.phase_shift_dealias = true;
    cfg.system = SystemType::Mhd;
    cfg.resistivity = 0.03;
    SlabSolver solver(comm, cfg);
    solver.init_isotropic(5, 3.0, 0.5);
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.1, 0.0, 0.4});
    for (int s = 0; s < 5; ++s) solver.step(0.004);
    EXPECT_LT(max_divergence(solver.modes(), comm, solver.field(3),
                             solver.field(4), solver.field(5)),
              1e-12);
    EXPECT_LT(solver.diagnostics().max_divergence, 1e-12);
    // Both mean-field components survive the nonlinear evolution exactly.
    EXPECT_DOUBLE_EQ(probe_mode(solver, comm, 3, 0, 0, 0).real(), 0.1);
    EXPECT_DOUBLE_EQ(probe_mode(solver, comm, 5, 0, 0, 0).real(), 0.4);
  });
}

// --- slab / pencil equivalence -------------------------------------------

struct SystemRun {
  Diagnostics diag;
  std::vector<NamedValue> sys;
  std::vector<std::pair<std::string, std::vector<double>>> spectra;
};

/// Steps a solver with the given ICs and collects every published
/// statistic on rank 0.
template <class Solver>
void collect(Solver& solver, comm::Communicator& comm, SystemRun* out) {
  solver.init_isotropic(5, 3.0, 0.5);
  for (int s = 0; s < solver.scalar_count(); ++s) {
    solver.init_scalar_isotropic(s, 6, 3.0, 0.3);
  }
  if (solver.magnetic_base() >= 0) {
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.0, 0.0, 0.4});
  }
  for (int s = 0; s < 3; ++s) solver.step(0.005);
  const Diagnostics d = solver.diagnostics();
  auto sys = solver.system_diagnostics();
  auto spectra = solver.named_spectra();
  if (comm.rank() == 0) {
    out->diag = d;
    out->sys = std::move(sys);
    out->spectra = std::move(spectra);
  }
}

void expect_equivalent(const SystemRun& slab, const SystemRun& pencil) {
  EXPECT_NEAR(slab.diag.energy, pencil.diag.energy, 1e-10);
  EXPECT_NEAR(slab.diag.dissipation, pencil.diag.dissipation, 1e-10);
  EXPECT_NEAR(slab.diag.u_max, pencil.diag.u_max, 1e-10);
  ASSERT_EQ(slab.sys.size(), pencil.sys.size());
  for (std::size_t i = 0; i < slab.sys.size(); ++i) {
    EXPECT_EQ(slab.sys[i].name, pencil.sys[i].name);
    EXPECT_NEAR(slab.sys[i].value, pencil.sys[i].value, 1e-10);
  }
  ASSERT_EQ(slab.spectra.size(), pencil.spectra.size());
  for (std::size_t g = 0; g < slab.spectra.size(); ++g) {
    EXPECT_EQ(slab.spectra[g].first, pencil.spectra[g].first);
    ASSERT_EQ(slab.spectra[g].second.size(), pencil.spectra[g].second.size());
    for (std::size_t k = 0; k < slab.spectra[g].second.size(); ++k) {
      EXPECT_NEAR(slab.spectra[g].second[k], pencil.spectra[g].second[k],
                  1e-10)
          << slab.spectra[g].first << " shell " << k;
    }
  }
}

void check_decomposition_equivalence(const SolverConfig& cfg) {
  SystemRun slab, pencil;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SlabSolver solver(comm, cfg);
    collect(solver, comm, &slab);
  });
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    PencilSolverConfig pcfg;
    pcfg.n = cfg.n;
    pcfg.viscosity = cfg.viscosity;
    pcfg.scheme = cfg.scheme;
    pcfg.phase_shift_dealias = cfg.phase_shift_dealias;
    pcfg.forcing = cfg.forcing;
    pcfg.scalars = cfg.scalars;
    pcfg.system = cfg.system;
    pcfg.rotation_omega = cfg.rotation_omega;
    pcfg.brunt_vaisala = cfg.brunt_vaisala;
    pcfg.resistivity = cfg.resistivity;
    pcfg.pr = 2;
    pcfg.pc = 2;
    PencilSolver solver(comm, pcfg);
    collect(solver, comm, &pencil);
  });
  expect_equivalent(slab, pencil);
}

TEST(Decomposition, RotatingSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.system = SystemType::RotatingNS;
  cfg.rotation_omega = 1.5;
  check_decomposition_equivalence(cfg);
}

TEST(Decomposition, BoussinesqSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.scheme = TimeScheme::RK4;
  cfg.system = SystemType::Boussinesq;
  cfg.brunt_vaisala = 1.5;
  check_decomposition_equivalence(cfg);
}

TEST(Decomposition, MhdSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.phase_shift_dealias = true;  // exercise the shifted 9-product path
  cfg.system = SystemType::Mhd;
  cfg.resistivity = 0.03;
  check_decomposition_equivalence(cfg);
}

// --- checkpoint compatibility --------------------------------------------

TEST(Systems, MhdStateSurvivesTheExtraFieldSlots) {
  // The checkpoint header's extra-field count covers any system's fields;
  // an MHD save/load round trip must restore the induction components
  // (including the k = 0 mean) bit-exactly. Uses restore() directly via
  // the io layer in io_test; here we pin the field/restore API itself.
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.system = SystemType::Mhd;
    SlabSolver a(comm, cfg);
    a.init_isotropic(3, 3.0, 0.5);
    a.init_magnetic_isotropic(4, 3.0, 0.25);
    a.set_uniform_magnetic_field({0.0, 0.2, 0.3});
    a.step(0.004);

    ASSERT_EQ(a.field_count(), 6u);
    std::vector<const Complex*> fields;
    for (std::size_t f = 0; f < a.field_count(); ++f) {
      fields.push_back(a.field(f));
    }
    SlabSolver b(comm, cfg);
    b.restore(fields, a.time(), a.step_count());
    for (std::size_t f = 0; f < a.field_count(); ++f) {
      const std::size_t m = a.modes().local_modes();
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(b.field(f)[i], a.field(f)[i]);
      }
    }
    EXPECT_DOUBLE_EQ(b.time(), a.time());
  });
}

}  // namespace
}  // namespace psdns::dns
