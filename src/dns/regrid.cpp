#include "dns/regrid.hpp"

#include <vector>

#include "util/check.hpp"

namespace psdns::dns {

void spectral_regrid(SpectralEngine& src, SpectralEngine& dst) {
  PSDNS_REQUIRE(&src.communicator() == &dst.communicator(),
                "src and dst must share a communicator");
  PSDNS_REQUIRE(src.config().system == dst.config().system &&
                    src.field_count() == dst.field_count(),
                "src and dst must carry the same system and fields");
  auto& comm = src.communicator();

  const std::size_t ns = src.n();
  const std::size_t nxh_s = ns / 2 + 1;

  // Assemble each source field globally and broadcast it, then every rank
  // fills its destination block by wavenumber lookup.
  transpose::GlobalModes modes(comm, src.modes());
  std::vector<Complex> global(modes.global_size());
  const std::size_t nfields = src.field_count();
  std::vector<std::vector<Complex>> out(
      nfields,
      std::vector<Complex>(dst.modes().local_modes(), Complex{0.0, 0.0}));

  const int half_s = static_cast<int>(ns) / 2;
  for (std::size_t f = 0; f < nfields; ++f) {
    modes.gather(src.field(f), global.data());
    comm.broadcast(global.data(), global.size(), 0);

    auto& o = out[f];
    for_each_mode(dst.modes(), [&](std::size_t idx, int kx, int ky, int kz) {
      if (kx > half_s || std::abs(ky) > half_s || std::abs(kz) > half_s) {
        return;  // beyond the source grid: stays zero (upsampling)
      }
      // Source storage indices: kx direct; ky/kz wrap negatives to the
      // upper half of the source axis.
      const auto jy = static_cast<std::size_t>(
          ky >= 0 ? ky : ky + static_cast<int>(ns));
      const auto jz = static_cast<std::size_t>(
          kz >= 0 ? kz : kz + static_cast<int>(ns));
      o[idx] = global[static_cast<std::size_t>(kx) + nxh_s * (jy + ns * jz)];
    });
  }

  std::vector<const Complex*> ptrs(nfields);
  for (std::size_t f = 0; f < nfields; ++f) ptrs[f] = out[f].data();
  dst.restore(std::span<const Complex* const>(ptrs.data(), nfields),
              src.time(), src.step_count());

  // Downsampling can reintroduce content above the destination's dealiasing
  // cutoff; one truncation pass restores the invariant.
  for (std::size_t f = 0; f < nfields; ++f) {
    dealias_truncate(dst.modes(), dst.field(f));
  }
}

}  // namespace psdns::dns
