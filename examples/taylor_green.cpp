// Taylor-Green validation: the 2-D Taylor-Green vortex is an exact
// Navier-Stokes solution whose energy decays as E(t) = E0 exp(-4 nu t).
// This example runs it through the full 3-D pseudo-spectral machinery (both
// the slab solver and the pencil baseline) and prints simulated vs analytic
// decay - the canonical correctness check for the whole stack.
//
//   ./taylor_green [--n=32] [--viscosity=0.05] [--steps=40] [--dt=0.01]

#include <cmath>
#include <cstdio>

#include "comm/communicator.hpp"
#include "dns/pencil_solver.hpp"
#include "dns/solver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 32));
  const double nu = cli.get_double("viscosity", 0.05);
  const int steps = static_cast<int>(cli.get_int("steps", 40));
  const double dt = cli.get_double("dt", 0.01);

  std::printf("Taylor-Green vortex, %zu^3, nu = %g\n", n, nu);
  std::printf("analytic: E(t) = 0.25 * exp(-4 nu t)\n\n");
  std::printf("%8s %14s %14s %14s %12s\n", "t", "E (slab)", "E (pencil)",
              "E (analytic)", "rel. error");

  // Slab solver on 4 ranks.
  std::vector<double> slab_energy;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = nu;
    dns::SlabSolver solver(comm, cfg);
    solver.init_taylor_green();
    for (int s = 0; s <= steps; ++s) {
      const double e = solver.diagnostics().energy;
      if (comm.rank() == 0) slab_energy.push_back(e);
      if (s < steps) solver.step(dt);
    }
  });

  // Pencil (2-D decomposition) baseline on a 2x2 grid.
  std::vector<double> pencil_energy;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::PencilSolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = nu;
    cfg.pr = 2;
    cfg.pc = 2;
    dns::PencilSolver solver(comm, cfg);
    solver.init_taylor_green();
    for (int s = 0; s <= steps; ++s) {
      const double e = solver.diagnostics().energy;
      if (comm.rank() == 0) pencil_energy.push_back(e);
      if (s < steps) solver.step(dt);
    }
  });

  double worst = 0.0;
  for (int s = 0; s <= steps; s += 5) {
    const double t = s * dt;
    const double analytic = 0.25 * std::exp(-4.0 * nu * t);
    const double err =
        std::fabs(slab_energy[static_cast<std::size_t>(s)] - analytic) /
        analytic;
    worst = std::max(worst, err);
    std::printf("%8.3f %14.8f %14.8f %14.8f %12.2e\n", t,
                slab_energy[static_cast<std::size_t>(s)],
                pencil_energy[static_cast<std::size_t>(s)], analytic, err);
  }
  std::printf("\nworst relative error vs analytic: %.2e %s\n", worst,
              worst < 1e-6 ? "(PASS)" : "(FAIL)");
  return worst < 1e-6 ? 0 : 1;
}
