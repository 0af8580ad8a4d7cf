#pragma once
// Spectral regridding: transfers a solver state onto a grid of different
// resolution by exact Fourier interpolation (zero-padding upward,
// truncation downward). This is how production campaigns seed a
// higher-resolution run from a developed lower-resolution field - e.g.
// stepping a turbulence database up toward the paper's 18432^3 - without
// re-spinning the flow from scratch.
//
// Both solvers must live on the same communicator and integrate the same
// equation system with the same field inventory; their decompositions may
// differ. Every prognostic field (velocity, scalars, magnetic field) is
// transferred; time and step counters carry over. Because dealiased fields
// have no content at or above (N-1)/3 < N/2, no Nyquist-plane ambiguity
// arises in either direction.

#include "dns/spectral_core.hpp"

namespace psdns::dns {

/// Copies src's spectral state into dst (exact where modes overlap, zero
/// elsewhere). Requires the same system and field count on both.
/// Collective over the shared communicator.
void spectral_regrid(SpectralEngine& src, SpectralEngine& dst);

}  // namespace psdns::dns
