#pragma once
// Layout-generic views of the data a rank owns, in both spaces:
//
//   ModeView - the local block of Fourier modes. The slab backend stores
//   spectra as Z-slabs (a[i + nxh*(j + N*kk)]) and the pencil baseline as
//   Z-pencils (pz[k + N*(ii + w*jj)]); all spectral physics (projection,
//   dealiasing, integrating factor, RHS assembly, spectra) is written once
//   against this view and shared by both solvers.
//
//   PhysView - the local block of physical grid points. The slab backend
//   holds Y-slabs (r[x + N*(z + N*jj)]) and the pencil baseline X-pencils
//   (r[x + N*(jj + yl*kk)]); initial conditions keyed on *global* grid
//   indices enumerate either layout through this view and therefore
//   produce bit-identical fields on every decomposition and rank count.
//
// Both views and the Decomposition choice live in the transpose layer
// (which defines the layouts); the dns layer re-exports them.

#include <cstddef>
#include <cstdint>

namespace psdns::transpose {

/// Which layout pair a distributed FFT backend uses: Y-slab / Z-slab
/// (SlabFft3d, the paper's new code) or X-pencil / Z-pencil (PencilFft3d,
/// the CPU baseline). Re-exported as dns::Decomposition and
/// svc::Decomposition.
enum class Decomposition { Slab, Pencil };

/// Signed wavenumber of grid index j on an N-point axis: 0..N/2, then
/// negative frequencies N/2+1..N-1 map to j-N.
inline int wrap_wavenumber(std::size_t j, std::size_t n) {
  return j <= n / 2 ? static_cast<int>(j)
                    : static_cast<int>(j) - static_cast<int>(n);
}

/// A rank's local block of modes: three loop dimensions with strides into
/// the storage array and global offsets along the (kx, ky, kz) axes.
/// Loop dimension d runs over axis `axis[d]` with extent `extent[d]`,
/// storage stride `stride[d]`, and global start `offset[d]`.
struct ModeView {
  std::size_t n = 0;  // global N (cubic grid)
  std::size_t extent[3] = {0, 0, 0};
  std::size_t stride[3] = {0, 0, 0};
  std::size_t offset[3] = {0, 0, 0};
  int axis[3] = {0, 1, 2};  // 0 = kx, 1 = ky, 2 = kz

  std::size_t local_modes() const { return extent[0] * extent[1] * extent[2]; }

  /// Z-slab view: index i + nxh*(j + n*kk); kz offset = rank*mz.
  static ModeView zslab(std::size_t n, std::size_t mz, std::size_t z0) {
    const std::size_t nxh = n / 2 + 1;
    ModeView v;
    v.n = n;
    v.extent[0] = nxh;
    v.stride[0] = 1;
    v.offset[0] = 0;
    v.axis[0] = 0;
    v.extent[1] = n;
    v.stride[1] = nxh;
    v.offset[1] = 0;
    v.axis[1] = 1;
    v.extent[2] = mz;
    v.stride[2] = nxh * n;
    v.offset[2] = z0;
    v.axis[2] = 2;
    return v;
  }

  /// Z-pencil view: index k + n*(ii + w*jj); kx offset = x0, ky offset = y0.
  static ModeView zpencil(std::size_t n, std::size_t w, std::size_t x0,
                          std::size_t yl2, std::size_t y0) {
    ModeView v;
    v.n = n;
    v.extent[0] = n;
    v.stride[0] = 1;
    v.offset[0] = 0;
    v.axis[0] = 2;  // fastest dim is kz
    v.extent[1] = w;
    v.stride[1] = n;
    v.offset[1] = x0;
    v.axis[1] = 0;
    v.extent[2] = yl2;
    v.stride[2] = n * w;
    v.offset[2] = y0;
    v.axis[2] = 1;
    return v;
  }
};

/// Calls f(index, kx, ky, kz) for every locally owned mode. kx is in
/// [0, N/2] (reduced axis); ky, kz are signed.
template <class F>
void for_each_mode(const ModeView& v, F&& f) {
  int k[3];  // by axis: k[0]=kx, k[1]=ky, k[2]=kz
  for (std::size_t c2 = 0; c2 < v.extent[2]; ++c2) {
    k[v.axis[2]] = wrap_wavenumber(v.offset[2] + c2, v.n);
    for (std::size_t c1 = 0; c1 < v.extent[1]; ++c1) {
      k[v.axis[1]] = wrap_wavenumber(v.offset[1] + c1, v.n);
      const std::size_t base = v.stride[2] * c2 + v.stride[1] * c1;
      for (std::size_t c0 = 0; c0 < v.extent[0]; ++c0) {
        k[v.axis[0]] = wrap_wavenumber(v.offset[0] + c0, v.n);
        f(base + v.stride[0] * c0, k[0], k[1], k[2]);
      }
    }
  }
}

/// Conjugate-symmetry weight of a mode on the reduced-x grid: interior
/// kx planes represent two modes (+kx and -kx), the kx = 0 and kx = N/2
/// planes represent one.
inline double mode_weight(int kx, std::size_t n) {
  return (kx == 0 || (n % 2 == 0 && kx == static_cast<int>(n / 2))) ? 1.0
                                                                    : 2.0;
}

/// A rank's local block of physical grid points: loop dimension d runs
/// over spatial axis `axis[d]` (0 = x, 1 = y, 2 = z) with storage stride
/// `stride[d]`, extent `extent[d]` and global start `offset[d]`.
struct PhysView {
  std::size_t n = 0;  // global N (cubic grid)
  std::size_t extent[3] = {0, 0, 0};
  std::size_t stride[3] = {0, 0, 0};
  std::size_t offset[3] = {0, 0, 0};
  int axis[3] = {0, 1, 2};

  std::size_t local_points() const {
    return extent[0] * extent[1] * extent[2];
  }

  /// Y-slab layout: index x + n*(z + n*jj); y offset = rank*my.
  static PhysView yslab(std::size_t n, std::size_t my, std::size_t y0) {
    PhysView v;
    v.n = n;
    v.extent[0] = n;
    v.stride[0] = 1;
    v.offset[0] = 0;
    v.axis[0] = 0;
    v.extent[1] = n;
    v.stride[1] = n;
    v.offset[1] = 0;
    v.axis[1] = 2;
    v.extent[2] = my;
    v.stride[2] = n * n;
    v.offset[2] = y0;
    v.axis[2] = 1;
    return v;
  }

  /// X-pencil layout: index x + n*(jj + yl*kk); y offset = row_rank*yl,
  /// z offset = col_rank*zl.
  static PhysView xpencil(std::size_t n, std::size_t yl, std::size_t y0,
                          std::size_t zl, std::size_t z0) {
    PhysView v;
    v.n = n;
    v.extent[0] = n;
    v.stride[0] = 1;
    v.offset[0] = 0;
    v.axis[0] = 0;
    v.extent[1] = yl;
    v.stride[1] = n;
    v.offset[1] = y0;
    v.axis[1] = 1;
    v.extent[2] = zl;
    v.stride[2] = n * yl;
    v.offset[2] = z0;
    v.axis[2] = 2;
    return v;
  }
};

/// Calls f(index, xi, yi, zi) for every locally owned grid point, with
/// (xi, yi, zi) the *global* integer grid indices in [0, N).
template <class F>
void for_each_point(const PhysView& v, F&& f) {
  std::size_t g[3];  // by axis: g[0]=xi, g[1]=yi, g[2]=zi
  for (std::size_t c2 = 0; c2 < v.extent[2]; ++c2) {
    g[v.axis[2]] = v.offset[2] + c2;
    for (std::size_t c1 = 0; c1 < v.extent[1]; ++c1) {
      g[v.axis[1]] = v.offset[1] + c1;
      const std::size_t base = v.stride[2] * c2 + v.stride[1] * c1;
      for (std::size_t c0 = 0; c0 < v.extent[0]; ++c0) {
        g[v.axis[0]] = v.offset[0] + c0;
        f(base + v.stride[0] * c0, g[0], g[1], g[2]);
      }
    }
  }
}

}  // namespace psdns::transpose
