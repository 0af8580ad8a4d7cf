#pragma once
// Pencil (2-D) decomposition and its row/column transposes (Fig. 1 right).
// This is the decomposition used by the synchronous CPU baseline code
// (Yeung et al. 2015) that the paper measures its speedups against.
//
// A Pr x Pc process grid (rank = row + Pr*col; the row communicator should
// map onto one node, as Sec. 3.1 recommends). Three layouts of one complex
// field with reduced x dimension nxh:
//
//   X-pencils: full x;      y split by Pr (yl);  z split by Pc (zl).
//       px[i + nxh*(jj + yl*kk)]
//   Y-pencils: full y;      x split by Pr (w);   z split by Pc (zl).
//       py[j + ny*(ii + w*kk)]
//   Z-pencils: full z;      x split by Pr (w);   y split by Pc (yl2).
//       pz[k + nz*(ii + w*jj)]
//
// x is split with pencil_range (nxh = N/2+1 is rarely divisible by Pr), so
// the row transpose uses alltoallv; the column transpose has equal blocks.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/types.hpp"
#include "transpose/slab.hpp"

namespace psdns::transpose {

struct PencilGrid {
  std::size_t nxh = 0;
  std::size_t ny = 0;
  std::size_t nz = 0;
  int pr = 1;  // row size (splits y in X-pencils, x in Y/Z-pencils)
  int pc = 1;  // column size (splits z in X/Y-pencils, y in Z-pencils)

  std::size_t yl() const { return ny / static_cast<std::size_t>(pr); }
  std::size_t zl() const { return nz / static_cast<std::size_t>(pc); }
  std::size_t yl2() const { return ny / static_cast<std::size_t>(pc); }

  void validate() const;
};

/// The most square Pr x Pc factorisation of `ranks`, with Pr <= Pc.
std::pair<int, int> most_square_grid(int ranks);

class PencilTranspose {
 public:
  /// Splits `world` into row/column communicators. All ranks collective.
  PencilTranspose(comm::Communicator& world, PencilGrid grid);

  const PencilGrid& grid() const { return grid_; }
  int row_rank() const { return row_.rank(); }
  int col_rank() const { return col_.rank(); }

  /// This rank's x-chunk in Y/Z-pencil layouts.
  PencilRange x_range() const {
    return pencil_range(grid_.nxh, grid_.pr, row_.rank());
  }

  /// X-pencils -> Y-pencils (row communicator). Collective over the row.
  void x_to_y(std::span<const Complex> px, std::span<Complex> py);
  /// Y-pencils -> X-pencils.
  void y_to_x(std::span<const Complex> py, std::span<Complex> px);
  /// Y-pencils -> Z-pencils (column communicator).
  void y_to_z(std::span<const Complex> py, std::span<Complex> pz);
  /// Z-pencils -> Y-pencils.
  void z_to_y(std::span<const Complex> pz, std::span<Complex> py);

 private:
  PencilGrid grid_;
  comm::Communicator row_;
  comm::Communicator col_;
  // Message staging from the workspace arena; count/displacement scratch
  // for the unequal-block row exchange is sized once in the constructor so
  // steady-state transposes allocate nothing.
  mutable util::WorkspaceArena::Handle<Complex> send_, recv_;
  std::vector<std::size_t> row_counts_, row_displs_;
  std::vector<std::size_t> peer_counts_, peer_displs_;
};

}  // namespace psdns::transpose
