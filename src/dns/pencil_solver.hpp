#pragma once
// The pencil-solver names the benchmark (perfbench/) is written against: the
// one engine on the pencil backend, the 2-D decomposition of the production
// CPU code of Yeung et al. (2015) that the paper benchmarks against
// (Table 3 "Sync CPU").

#include "dns/spectral_core.hpp"

namespace psdns::dns {

/// The benchmark's API: the pencil config is the one SolverConfig.
using PencilSolverConfig = SolverConfig;

/// The benchmark's API: the engine with decomposition forced to Pencil.
class PencilSolver : public SpectralEngine {
 public:
  PencilSolver(comm::Communicator& comm, SolverConfig config)
      : SpectralEngine(comm, [&config] {
          config.decomposition = Decomposition::Pencil;
          return std::move(config);
        }()) {}
};

}  // namespace psdns::dns
