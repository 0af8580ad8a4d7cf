#include "transpose/pencil.hpp"

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {

void PencilGrid::validate() const {
  PSDNS_REQUIRE(nxh >= 1 && ny >= 1 && nz >= 1, "empty grid");
  PSDNS_REQUIRE(pr >= 1 && pc >= 1, "bad process grid");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(pr) == 0,
                "ny must be divisible by Pr");
  PSDNS_REQUIRE(nz % static_cast<std::size_t>(pc) == 0,
                "nz must be divisible by Pc");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(pc) == 0,
                "ny must be divisible by Pc");
  PSDNS_REQUIRE(nxh >= static_cast<std::size_t>(pr),
                "x extent smaller than the row size");
}

std::pair<int, int> most_square_grid(int ranks) {
  PSDNS_REQUIRE(ranks >= 1, "rank count must be positive");
  int pr = 1;
  for (int r = 1; r * r <= ranks; ++r) {
    if (ranks % r == 0) pr = r;
  }
  return {pr, ranks / pr};
}

PencilTranspose::PencilTranspose(comm::Communicator& world, PencilGrid grid)
    : grid_(grid),
      // Row communicator: ranks with the same column index (rank / pr).
      row_(world.split(world.rank() / grid.pr, world.rank() % grid.pr)),
      // Column communicator: ranks with the same row index (rank % pr).
      col_(world.split(world.rank() % grid.pr, world.rank() / grid.pr)) {
  grid_.validate();
  PSDNS_REQUIRE(world.size() == grid_.pr * grid_.pc,
                "world size must equal Pr * Pc");
  row_counts_.resize(static_cast<std::size_t>(grid_.pr));
  row_displs_.resize(static_cast<std::size_t>(grid_.pr));
  peer_counts_.resize(static_cast<std::size_t>(grid_.pr));
  peer_displs_.resize(static_cast<std::size_t>(grid_.pr));
}

void PencilTranspose::x_to_y(std::span<const Complex> px,
                             std::span<Complex> py) {
  const std::size_t yl = grid_.yl(), zl = grid_.zl();
  PSDNS_REQUIRE(px.size() >= grid_.nxh * yl * zl, "px too small");
  PSDNS_REQUIRE(py.size() >= grid_.ny * x_range().width() * zl,
                "py too small");

  // Pack: block for row-rank d covers its x-chunk; layout jj + yl*(ii+w_d*kk).
  std::size_t total = 0;
  for (int d = 0; d < grid_.pr; ++d) {
    const auto r = pencil_range(grid_.nxh, grid_.pr, d);
    row_counts_[static_cast<std::size_t>(d)] = yl * r.width() * zl;
    row_displs_[static_cast<std::size_t>(d)] = total;
    total += row_counts_[static_cast<std::size_t>(d)];
  }
  send_.ensure(total);
  // Receive side: every source sends a w_me-wide block, which can exceed the
  // send total when this rank owns the widest x-chunk.
  const std::size_t rtotal = static_cast<std::size_t>(grid_.pr) * yl *
                             x_range().width() * zl;
  recv_.ensure(rtotal);

  // (d, kk) pairs write disjoint send-block slices; stripe them across the
  // worker pool.
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.pack", 0,
      static_cast<std::size_t>(grid_.pr) * zl, [&](std::size_t idx) {
        const int d = static_cast<int>(idx / zl);
        const std::size_t kk = idx % zl;
        const auto r = pencil_range(grid_.nxh, grid_.pr, d);
        Complex* out =
            send_.data() + row_displs_[static_cast<std::size_t>(d)];
        for (std::size_t ii = 0; ii < r.width(); ++ii) {
          const Complex* src =
              px.data() + (r.x0 + ii) + grid_.nxh * (yl * kk);
          Complex* dst = out + yl * (ii + r.width() * kk);
          for (std::size_t jj = 0; jj < yl; ++jj) {
            dst[jj] = src[grid_.nxh * jj];
          }
        }
      });

  // Receive layout is symmetric: every source sends me w_me-wide blocks.
  const std::size_t w = x_range().width();
  for (int s = 0; s < grid_.pr; ++s) {
    peer_counts_[static_cast<std::size_t>(s)] = yl * w * zl;
    peer_displs_[static_cast<std::size_t>(s)] =
        static_cast<std::size_t>(s) * yl * w * zl;
  }
  row_.alltoallv(send_.data(), row_counts_.data(), row_displs_.data(),
                 recv_.data(), peer_counts_.data(), peer_displs_.data());

  // Unpack: source s contributed y range [s*yl, (s+1)*yl).
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.unpack", 0,
      static_cast<std::size_t>(grid_.pr) * zl, [&](std::size_t idx) {
        const std::size_t sidx = idx / zl;
        const std::size_t kk = idx % zl;
        const Complex* in = recv_.data() + peer_displs_[sidx];
        for (std::size_t ii = 0; ii < w; ++ii) {
          const Complex* src = in + yl * (ii + w * kk);
          Complex* dst =
              py.data() + sidx * yl + grid_.ny * (ii + w * kk);
          for (std::size_t jj = 0; jj < yl; ++jj) dst[jj] = src[jj];
        }
      });
}

void PencilTranspose::y_to_x(std::span<const Complex> py,
                             std::span<Complex> px) {
  const std::size_t yl = grid_.yl(), zl = grid_.zl();
  const std::size_t w = x_range().width();

  // Pack: block for row-rank d holds its y range of my x-chunk.
  std::size_t total = static_cast<std::size_t>(grid_.pr) * yl * w * zl;
  send_.ensure(total);
  for (int d = 0; d < grid_.pr; ++d) {
    peer_counts_[static_cast<std::size_t>(d)] = yl * w * zl;
    peer_displs_[static_cast<std::size_t>(d)] =
        static_cast<std::size_t>(d) * yl * w * zl;
  }
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.pack", 0,
      static_cast<std::size_t>(grid_.pr) * zl, [&](std::size_t idx) {
        const std::size_t didx = idx / zl;
        const std::size_t kk = idx % zl;
        Complex* out = send_.data() + peer_displs_[didx];
        for (std::size_t ii = 0; ii < w; ++ii) {
          const Complex* src =
              py.data() + didx * yl + grid_.ny * (ii + w * kk);
          Complex* dst = out + yl * (ii + w * kk);
          for (std::size_t jj = 0; jj < yl; ++jj) dst[jj] = src[jj];
        }
      });

  // Receive: source s owns x-chunk w_s.
  std::size_t rtotal = 0;
  for (int s = 0; s < grid_.pr; ++s) {
    const auto r = pencil_range(grid_.nxh, grid_.pr, s);
    row_counts_[static_cast<std::size_t>(s)] = yl * r.width() * zl;
    row_displs_[static_cast<std::size_t>(s)] = rtotal;
    rtotal += row_counts_[static_cast<std::size_t>(s)];
  }
  recv_.ensure(rtotal);
  row_.alltoallv(send_.data(), peer_counts_.data(), peer_displs_.data(),
                 recv_.data(), row_counts_.data(), row_displs_.data());

  util::ThreadPool::global().parallel_for(
      "transpose.pencil.unpack", 0,
      static_cast<std::size_t>(grid_.pr) * zl, [&](std::size_t idx) {
        const int sr = static_cast<int>(idx / zl);
        const std::size_t kk = idx % zl;
        const auto r = pencil_range(grid_.nxh, grid_.pr, sr);
        const Complex* in =
            recv_.data() + row_displs_[static_cast<std::size_t>(sr)];
        for (std::size_t ii = 0; ii < r.width(); ++ii) {
          const Complex* src = in + yl * (ii + r.width() * kk);
          Complex* dst = px.data() + (r.x0 + ii) + grid_.nxh * (yl * kk);
          for (std::size_t jj = 0; jj < yl; ++jj) {
            dst[grid_.nxh * jj] = src[jj];
          }
        }
      });
}

void PencilTranspose::y_to_z(std::span<const Complex> py,
                             std::span<Complex> pz) {
  const std::size_t zl = grid_.zl(), yl2 = grid_.yl2();
  const std::size_t w = x_range().width();
  const std::size_t block = yl2 * w * zl;
  const std::size_t total = block * static_cast<std::size_t>(grid_.pc);
  send_.ensure(total);
  recv_.ensure(total);

  // Pack for column-rank d: its y range, all local z; layout kk+zl*(ii+w*jj).
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.pack", 0,
      static_cast<std::size_t>(grid_.pc) * yl2, [&](std::size_t idx) {
        const std::size_t didx = idx / yl2;
        const std::size_t jj = idx % yl2;
        Complex* out = send_.data() + didx * block;
        for (std::size_t ii = 0; ii < w; ++ii) {
          Complex* dst = out + zl * (ii + w * jj);
          const Complex* src =
              py.data() + (didx * yl2 + jj) + grid_.ny * ii;
          for (std::size_t kk = 0; kk < zl; ++kk) {
            dst[kk] = src[grid_.ny * w * kk];
          }
        }
      });

  col_.alltoall(send_.data(), recv_.data(), block);

  // Unpack: source s contributed z range [s*zl, (s+1)*zl).
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.unpack", 0,
      static_cast<std::size_t>(grid_.pc) * yl2, [&](std::size_t idx) {
        const std::size_t sidx = idx / yl2;
        const std::size_t jj = idx % yl2;
        const Complex* in = recv_.data() + sidx * block;
        for (std::size_t ii = 0; ii < w; ++ii) {
          const Complex* src = in + zl * (ii + w * jj);
          Complex* dst =
              pz.data() + sidx * zl + grid_.nz * (ii + w * jj);
          for (std::size_t kk = 0; kk < zl; ++kk) dst[kk] = src[kk];
        }
      });
}

void PencilTranspose::z_to_y(std::span<const Complex> pz,
                             std::span<Complex> py) {
  const std::size_t zl = grid_.zl(), yl2 = grid_.yl2();
  const std::size_t w = x_range().width();
  const std::size_t block = yl2 * w * zl;
  const std::size_t total = block * static_cast<std::size_t>(grid_.pc);
  send_.ensure(total);
  recv_.ensure(total);

  // Pack for column-rank d: its z range of my full-z pencils.
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.pack", 0,
      static_cast<std::size_t>(grid_.pc) * yl2, [&](std::size_t idx) {
        const std::size_t didx = idx / yl2;
        const std::size_t jj = idx % yl2;
        Complex* out = send_.data() + didx * block;
        for (std::size_t ii = 0; ii < w; ++ii) {
          Complex* dst = out + zl * (ii + w * jj);
          const Complex* src =
              pz.data() + didx * zl + grid_.nz * (ii + w * jj);
          for (std::size_t kk = 0; kk < zl; ++kk) dst[kk] = src[kk];
        }
      });

  col_.alltoall(send_.data(), recv_.data(), block);

  // Unpack: source s contributed y range [s*yl2, (s+1)*yl2).
  util::ThreadPool::global().parallel_for(
      "transpose.pencil.unpack", 0,
      static_cast<std::size_t>(grid_.pc) * yl2, [&](std::size_t idx) {
        const std::size_t sidx = idx / yl2;
        const std::size_t jj = idx % yl2;
        const Complex* in = recv_.data() + sidx * block;
        for (std::size_t ii = 0; ii < w; ++ii) {
          const Complex* src = in + zl * (ii + w * jj);
          Complex* dst =
              py.data() + (sidx * yl2 + jj) + grid_.ny * ii;
          for (std::size_t kk = 0; kk < zl; ++kk) {
            dst[grid_.ny * w * kk] = src[kk];
          }
        }
      });
}

}  // namespace psdns::transpose
