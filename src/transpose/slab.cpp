#include "transpose/slab.hpp"

#include <algorithm>

#include "gpu/copy.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {

namespace {

// Side of the square tiles in which the unpacks walk a received block.
constexpr std::size_t kUnpackTile = 8;

// The unpacks' transpose of one (rank, variable) block: the row (a, b) of w
// elements moves from src + w*a + src_pitch*b to dst + dst_step*a +
// dst_pitch*b, for a in tile `a_tile` of [0, na) and b < nb. The block is
// b-major, so consecutive b are src_pitch apart (16 KiB, a power of two, at
// N = 128 on 2 ranks in 4 pencils): a whole-b walk touches a new page and
// the same L1 sets on every row. Square tiles cut that walk to kUnpackTile
// rows, and the tile's other a-rows read the rest of the same lines.
void unpack_tile(const Complex* src, std::size_t src_pitch, Complex* dst,
                 std::size_t dst_step, std::size_t dst_pitch, std::size_t w,
                 std::size_t a_tile, std::size_t na, std::size_t nb) {
  const std::size_t a0 = a_tile * kUnpackTile;
  const std::size_t a1 = std::min(a0 + kUnpackTile, na);
  for (std::size_t b0 = 0; b0 < nb; b0 += kUnpackTile) {
    const std::size_t rows = std::min(kUnpackTile, nb - b0);
    for (std::size_t a = a0; a < a1; ++a) {
      gpu::memcpy2d(dst + dst_step * a + dst_pitch * b0, dst_pitch,
                    src + w * a + src_pitch * b0, src_pitch, w, rows);
    }
  }
}

std::size_t unpack_tiles(std::size_t na) {
  return (na + kUnpackTile - 1) / kUnpackTile;
}

}  // namespace

void SlabGrid::validate() const {
  PSDNS_REQUIRE(nxh >= 1 && ny >= 1 && nz >= 1, "empty grid");
  PSDNS_REQUIRE(ranks >= 1, "need at least one rank");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(ranks) == 0,
                "ny must be divisible by the rank count (load balance)");
  PSDNS_REQUIRE(nz % static_cast<std::size_t>(ranks) == 0,
                "nz must be divisible by the rank count (load balance)");
}

PencilRange pencil_range(std::size_t nxh, int np, int ip) {
  PSDNS_REQUIRE(np >= 1 && ip >= 0 && ip < np, "bad pencil index");
  const std::size_t base = nxh / static_cast<std::size_t>(np);
  const std::size_t x0 = base * static_cast<std::size_t>(ip);
  const std::size_t x1 =
      ip == np - 1 ? nxh : base * static_cast<std::size_t>(ip + 1);
  return PencilRange{x0, x1};
}

SlabTranspose::SlabTranspose(comm::Communicator& comm, SlabGrid grid)
    : comm_(comm), grid_(grid) {
  grid_.validate();
  PSDNS_REQUIRE(grid_.ranks == comm.size(),
                "grid rank count must match the communicator");
}

void SlabTranspose::pack_z(std::span<const Complex* const> vars_a,
                           std::size_t x0, std::size_t x1,
                           std::span<Complex> send) const {
  obs::TraceSpan span("transpose.pack_z", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_a.size());
  PSDNS_REQUIRE(send.size() >= block * static_cast<std::size_t>(comm_.size()),
                "send buffer too small");

  // Every (q, v, kk) copy touches a disjoint destination, so the flattened
  // loop stripes across the worker pool.
  const std::size_t nvars = vars_a.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.pack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * mz,
      [&](std::size_t idx) {
        const std::size_t kk = idx % mz;
        const std::size_t v = (idx / mz) % nvars;
        const std::size_t q = idx / (mz * nvars);
        Complex* out = send.data() + q * block;
        // my rows of w contiguous elements: jj-th row starts at y index
        // q*my + jj within this local z-plane.
        const Complex* src =
            vars_a[v] + x0 + grid_.nxh * (q * my + grid_.ny * kk);
        Complex* dst = out + w * my * (kk + mz * v);
        gpu::memcpy2d(dst, w, src, grid_.nxh, w, my);
      });
}

void SlabTranspose::unpack_y(std::span<const Complex> recv, std::size_t x0,
                             std::size_t x1,
                             std::span<Complex* const> vars_b) const {
  obs::TraceSpan span("transpose.unpack_y", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_b.size());

  const std::size_t nvars = vars_b.size();
  const std::size_t tiles = unpack_tiles(my);
  util::ThreadPool::global().parallel_for(
      "transpose.slab.unpack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * tiles,
      [&](std::size_t idx) {
        const std::size_t t = idx % tiles;
        const std::size_t v = (idx / tiles) % nvars;
        const std::size_t p = idx / (tiles * nvars);
        // Block row (jj, kk) sits at w*(jj + my*kk) (kk-major); it lands at
        // z index p*mz + kk of local y jj.
        unpack_tile(recv.data() + p * block + w * my * mz * v, w * my,
                    vars_b[v] + x0 + grid_.nxh * p * mz,
                    grid_.nxh * grid_.nz, grid_.nxh, w, t, my, mz);
      });
}

void SlabTranspose::pack_y(std::span<const Complex* const> vars_b,
                           std::size_t x0, std::size_t x1,
                           std::span<Complex> send) const {
  obs::TraceSpan span("transpose.pack_y", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_b.size());
  PSDNS_REQUIRE(send.size() >= block * static_cast<std::size_t>(comm_.size()),
                "send buffer too small");

  const std::size_t nvars = vars_b.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.pack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * my,
      [&](std::size_t idx) {
        const std::size_t jj = idx % my;
        const std::size_t v = (idx / my) % nvars;
        const std::size_t q = idx / (my * nvars);
        Complex* out = send.data() + q * block;
        const Complex* src =
            vars_b[v] + x0 + grid_.nxh * (q * mz + grid_.nz * jj);
        Complex* dst = out + w * mz * (jj + my * v);
        gpu::memcpy2d(dst, w, src, grid_.nxh, w, mz);
      });
}

void SlabTranspose::unpack_z(std::span<const Complex> recv, std::size_t x0,
                             std::size_t x1,
                             std::span<Complex* const> vars_a) const {
  obs::TraceSpan span("transpose.unpack_z", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_a.size());

  const std::size_t nvars = vars_a.size();
  const std::size_t tiles = unpack_tiles(mz);
  util::ThreadPool::global().parallel_for(
      "transpose.slab.unpack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * tiles,
      [&](std::size_t idx) {
        const std::size_t t = idx % tiles;
        const std::size_t v = (idx / tiles) % nvars;
        const std::size_t p = idx / (tiles * nvars);
        // Block row (kk, jj) sits at w*(kk + mz*jj) (jj-major); it lands at
        // y index p*my + jj of local z kk.
        unpack_tile(recv.data() + p * block + w * mz * my * v, w * mz,
                    vars_a[v] + x0 + grid_.nxh * p * my,
                    grid_.nxh * grid_.ny, grid_.nxh, w, t, mz, my);
      });
}

void SlabTranspose::z_to_y_chunk(std::span<const Complex* const> vars_a,
                                 std::span<Complex* const> vars_b,
                                 std::size_t x0, std::size_t x1) {
  PSDNS_REQUIRE(x1 > x0 && x1 <= grid_.nxh, "bad x-chunk");
  PSDNS_REQUIRE(vars_a.size() == vars_b.size(), "variable count mismatch");
  const std::size_t block = block_elems(x1 - x0, vars_a.size());
  const std::size_t total = block * static_cast<std::size_t>(comm_.size());
  send_.ensure(total);
  recv_.ensure(total);
  pack_z(vars_a, x0, x1, std::span<Complex>(send_.data(), total));
  comm_.alltoall(send_.data(), recv_.data(), block);
  unpack_y(std::span<const Complex>(recv_.data(), total), x0, x1, vars_b);
}

void SlabTranspose::y_to_z_chunk(std::span<const Complex* const> vars_b,
                                 std::span<Complex* const> vars_a,
                                 std::size_t x0, std::size_t x1) {
  PSDNS_REQUIRE(x1 > x0 && x1 <= grid_.nxh, "bad x-chunk");
  PSDNS_REQUIRE(vars_a.size() == vars_b.size(), "variable count mismatch");
  const std::size_t block = block_elems(x1 - x0, vars_b.size());
  const std::size_t total = block * static_cast<std::size_t>(comm_.size());
  send_.ensure(total);
  recv_.ensure(total);
  pack_y(vars_b, x0, x1, std::span<Complex>(send_.data(), total));
  comm_.alltoall(send_.data(), recv_.data(), block);
  unpack_z(std::span<const Complex>(recv_.data(), total), x0, x1, vars_a);
}

void SlabTranspose::z_to_y(std::span<const Complex* const> vars_a,
                           std::span<Complex* const> vars_b, int np, int q) {
  PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
  for (int ip = 0; ip < np; ip += q) {
    const auto lo = pencil_range(grid_.nxh, np, ip);
    const auto hi = pencil_range(grid_.nxh, np, std::min(ip + q, np) - 1);
    z_to_y_chunk(vars_a, vars_b, lo.x0, hi.x1);
  }
}

void SlabTranspose::y_to_z(std::span<const Complex* const> vars_b,
                           std::span<Complex* const> vars_a, int np, int q) {
  PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
  for (int ip = 0; ip < np; ip += q) {
    const auto lo = pencil_range(grid_.nxh, np, ip);
    const auto hi = pencil_range(grid_.nxh, np, std::min(ip + q, np) - 1);
    y_to_z_chunk(vars_b, vars_a, lo.x0, hi.x1);
  }
}

}  // namespace psdns::transpose
