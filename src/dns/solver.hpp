#pragma once
// The solver names the benchmark (perfbench/) is written against. The one
// solver is dns::SpectralEngine; SolverConfig::decomposition picks its FFT
// backend.

#include "dns/spectral_core.hpp"

namespace psdns::dns {

/// The benchmark's API: the engine under its slab-solver name.
using SlabSolver = SpectralEngine;

}  // namespace psdns::dns
