#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/fft3d.hpp"
#include "transpose/dist_fft.hpp"
#include "transpose/pencil.hpp"
#include "transpose/slab.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {
namespace {

// Deterministic per-global-index values so every rank can check any element.
Complex cval(std::size_t i, std::size_t j, std::size_t k) {
  util::SplitMix64 sm(1 + i + 1000 * j + 1000000 * k);
  const double a = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const double b = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return Complex{a - 0.5, b - 0.5};
}

double rval(std::size_t i, std::size_t j, std::size_t k) {
  return cval(i, j, k).real();
}

TEST(PencilRange, EvenAndUnevenSplits) {
  EXPECT_EQ(pencil_range(12, 3, 0).x0, 0u);
  EXPECT_EQ(pencil_range(12, 3, 0).x1, 4u);
  EXPECT_EQ(pencil_range(12, 3, 2).x1, 12u);
  // nxh = 17 over 4 pencils: 4,4,4,5.
  EXPECT_EQ(pencil_range(17, 4, 0).width(), 4u);
  EXPECT_EQ(pencil_range(17, 4, 3).width(), 5u);
  EXPECT_EQ(pencil_range(17, 4, 3).x1, 17u);
  EXPECT_THROW(pencil_range(8, 2, 2), util::Error);
}

class SlabTransposeP : public ::testing::TestWithParam<int> {};

TEST_P(SlabTransposeP, ZToYPlacesEveryElement) {
  const int P = GetParam();
  const std::size_t nxh = 9, ny = 8, nz = 16;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    const std::size_t mz = grid.mz(), my = grid.my();
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * mz;
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;

    std::vector<Complex> a(grid.zslab_elems());
    for (std::size_t kk = 0; kk < mz; ++kk) {
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nxh; ++i) {
          a[i + nxh * (j + ny * kk)] = cval(i, j, z0 + kk);
        }
      }
    }
    std::vector<Complex> b(grid.yslab_elems(), Complex{-9, -9});
    const Complex* ap = a.data();
    Complex* bp = b.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&bp, 1));

    for (std::size_t jj = 0; jj < my; ++jj) {
      for (std::size_t k = 0; k < nz; ++k) {
        for (std::size_t i = 0; i < nxh; ++i) {
          EXPECT_EQ(b[i + nxh * (k + nz * jj)], cval(i, y0 + jj, k))
              << "rank=" << comm.rank() << " i=" << i << " k=" << k
              << " jj=" << jj;
        }
      }
    }
  });
}

TEST_P(SlabTransposeP, RoundTripIsIdentity) {
  const int P = GetParam();
  const std::size_t nxh = 5, ny = 8, nz = 8;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    util::Rng rng(77, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> a(grid.zslab_elems());
    for (auto& c : a) c = Complex{rng.gaussian(), rng.gaussian()};
    const auto orig = a;
    std::vector<Complex> b(grid.yslab_elems());
    const Complex* ap = a.data();
    Complex* bp = b.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&bp, 1));
    const Complex* bcp = b.data();
    Complex* amp = a.data();
    tp.y_to_z(std::span<const Complex* const>(&bcp, 1),
              std::span<Complex* const>(&amp, 1));
    EXPECT_EQ(a, orig);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SlabTransposeP, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

TEST(SlabTranspose, PencilBatchingMatchesWholeSlab) {
  // np pencils, various Q groupings: all must equal the single all-to-all.
  const int P = 4;
  const std::size_t nxh = 13, ny = 8, nz = 8;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    util::Rng rng(5, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> a(grid.zslab_elems());
    for (auto& c : a) c = Complex{rng.gaussian(), rng.gaussian()};

    std::vector<Complex> whole(grid.yslab_elems(), Complex{0, 0});
    const Complex* ap = a.data();
    Complex* wp = whole.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&wp, 1), 1, 1);

    for (const auto& [np, q] : {std::pair{4, 1}, {4, 2}, {4, 4}, {3, 2}}) {
      std::vector<Complex> batched(grid.yslab_elems(), Complex{0, 0});
      Complex* bp = batched.data();
      tp.z_to_y(std::span<const Complex* const>(&ap, 1),
                std::span<Complex* const>(&bp, 1), np, q);
      EXPECT_EQ(batched, whole) << "np=" << np << " q=" << q;
    }
  });
}

TEST(SlabTranspose, MultipleVariablesInOneMessage) {
  const int P = 2;
  const std::size_t nxh = 4, ny = 4, nz = 4;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * grid.mz();
    std::vector<std::vector<Complex>> a(3);
    std::vector<const Complex*> aps(3);
    for (std::size_t v = 0; v < 3; ++v) {
      a[v].resize(grid.zslab_elems());
      for (std::size_t kk = 0; kk < grid.mz(); ++kk) {
        for (std::size_t j = 0; j < ny; ++j) {
          for (std::size_t i = 0; i < nxh; ++i) {
            a[v][i + nxh * (j + ny * kk)] =
                cval(i, j, z0 + kk) + Complex{static_cast<double>(v), 0};
          }
        }
      }
      aps[v] = a[v].data();
    }
    std::vector<std::vector<Complex>> b(3);
    std::vector<Complex*> bps(3);
    for (std::size_t v = 0; v < 3; ++v) {
      b[v].resize(grid.yslab_elems());
      bps[v] = b[v].data();
    }
    tp.z_to_y(std::span<const Complex* const>(aps.data(), 3),
              std::span<Complex* const>(bps.data(), 3));
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * grid.my();
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::size_t jj = 0; jj < grid.my(); ++jj) {
        for (std::size_t k = 0; k < nz; ++k) {
          for (std::size_t i = 0; i < nxh; ++i) {
            const Complex want =
                cval(i, y0 + jj, k) + Complex{static_cast<double>(v), 0};
            EXPECT_EQ(b[v][i + nxh * (k + nz * jj)], want);
          }
        }
      }
    }
  });
}

TEST(SlabGrid, RejectsIndivisibleShapes) {
  EXPECT_THROW((SlabGrid{4, 6, 8, 4}).validate(), util::Error);  // ny % 4 != 0
  EXPECT_THROW((SlabGrid{4, 8, 6, 4}).validate(), util::Error);  // nz % 4 != 0
  EXPECT_NO_THROW((SlabGrid{4, 8, 8, 4}).validate());
}

// --- pencil transpose ---

struct GridCase {
  int pr, pc;
};

class PencilTransposeP : public ::testing::TestWithParam<GridCase> {};

TEST_P(PencilTransposeP, FullCycleRoundTrip) {
  const auto [pr, pc] = GetParam();
  const std::size_t nxh = 9, ny = 8, nz = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilGrid grid{nxh, ny, nz, pr, pc};
    PencilTranspose tp(comm, grid);
    const std::size_t w = tp.x_range().width();

    util::Rng rng(9, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> px(nxh * grid.yl() * grid.zl());
    for (auto& c : px) c = Complex{rng.gaussian(), rng.gaussian()};
    const auto orig = px;

    std::vector<Complex> py(ny * w * grid.zl());
    std::vector<Complex> pz(nz * w * grid.yl2());
    tp.x_to_y(px, py);
    tp.y_to_z(py, pz);
    std::fill(py.begin(), py.end(), Complex{0, 0});
    tp.z_to_y(pz, py);
    std::fill(px.begin(), px.end(), Complex{0, 0});
    tp.y_to_x(py, px);
    EXPECT_EQ(px, orig) << "pr=" << pr << " pc=" << pc;
  });
}

TEST_P(PencilTransposeP, GlobalPlacementIsCorrect) {
  const auto [pr, pc] = GetParam();
  const std::size_t nxh = 7, ny = 8, nz = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilGrid grid{nxh, ny, nz, pr, pc};
    PencilTranspose tp(comm, grid);
    const std::size_t yl = grid.yl(), zl = grid.zl(), yl2 = grid.yl2();
    const std::size_t y0 = static_cast<std::size_t>(tp.row_rank()) * yl;
    const std::size_t z0 = static_cast<std::size_t>(tp.col_rank()) * zl;

    std::vector<Complex> px(nxh * yl * zl);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t jj = 0; jj < yl; ++jj) {
        for (std::size_t i = 0; i < nxh; ++i) {
          px[i + nxh * (jj + yl * kk)] = cval(i, y0 + jj, z0 + kk);
        }
      }
    }

    const auto xr = tp.x_range();
    std::vector<Complex> py(ny * xr.width() * zl, Complex{-1, -1});
    tp.x_to_y(px, py);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t j = 0; j < ny; ++j) {
          EXPECT_EQ(py[j + ny * (ii + xr.width() * kk)],
                    cval(xr.x0 + ii, j, z0 + kk));
        }
      }
    }

    std::vector<Complex> pz(nz * xr.width() * yl2, Complex{-1, -1});
    tp.y_to_z(py, pz);
    const std::size_t y0b = static_cast<std::size_t>(tp.col_rank()) * yl2;
    for (std::size_t jj = 0; jj < yl2; ++jj) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t k = 0; k < nz; ++k) {
          EXPECT_EQ(pz[k + nz * (ii + xr.width() * jj)],
                    cval(xr.x0 + ii, y0b + jj, k));
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PencilTransposeP,
    ::testing::Values(GridCase{1, 1}, GridCase{2, 2}, GridCase{4, 2},
                      GridCase{2, 4}, GridCase{1, 4}, GridCase{4, 1}),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return "Pr" + std::to_string(pinfo.param.pr) + "Pc" +
             std::to_string(pinfo.param.pc);
    });

// --- distributed FFTs vs serial reference ---

class SlabFftP : public ::testing::TestWithParam<int> {};

TEST_P(SlabFftP, ForwardMatchesSerialReference) {
  const int P = GetParam();
  const std::size_t n = 16;
  // Serial reference on the full cube.
  std::vector<Real> full(n * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        full[i + n * (j + n * k)] = rval(i, j, k);
      }
    }
  }
  const std::size_t h = n / 2 + 1;
  std::vector<Complex> want(h * n * n);
  fft::fft3d_r2c(fft::Shape3{n, n, n}, full.data(), want.data());

  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabFft3d fft3(comm, n);
    const std::size_t my = fft3.my(), mz = fft3.mz();
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * mz;

    // Physical Y-slab: r[x + n*(k + n*jj)].
    std::vector<Real> phys(fft3.physical_elems());
    for (std::size_t jj = 0; jj < my; ++jj) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          phys[i + n * (k + n * jj)] = rval(i, y0 + jj, k);
        }
      }
    }
    std::vector<Complex> spec(fft3.spectral_elems());
    fft3.forward(phys, spec);

    for (std::size_t kk = 0; kk < mz; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < h; ++i) {
          const Complex got = spec[i + h * (j + n * kk)];
          const Complex ref = want[i + h * (j + n * (z0 + kk))];
          EXPECT_LT(std::abs(got - ref), 1e-9)
              << "P=" << P << " i=" << i << " j=" << j << " k=" << z0 + kk;
        }
      }
    }
  });
}

TEST_P(SlabFftP, RoundTripScalesByVolume) {
  const int P = GetParam();
  const std::size_t n = 16;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabFft3d fft3(comm, n);
    util::Rng rng(3, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(fft3.physical_elems());
    for (auto& v : phys) v = rng.gaussian();
    std::vector<Complex> spec(fft3.spectral_elems());
    std::vector<Real> back(fft3.physical_elems());
    fft3.forward(phys, spec, /*np=*/2, /*q=*/1);
    fft3.inverse(spec, back, /*np=*/2, /*q=*/2);
    const double scale = static_cast<double>(n) * n * n;
    for (std::size_t idx = 0; idx < phys.size(); ++idx) {
      EXPECT_NEAR(back[idx] / scale, phys[idx], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SlabFftP, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

TEST(SlabFft, PooledForwardBitwiseMatchesInline) {
  // The pooled pack/unpack and fused x+z plane loops stripe
  // deterministically, so widening the worker pool must not move a single
  // bit of the result, forward or inverse. n = 128 runs more than one block
  // per plane in both the x pass (128 lines) and the z pass (65 lines).
  for (const std::size_t n : {16, 128}) {
    std::vector<Complex> inline_spec, pooled_spec;
    std::vector<Real> inline_back, pooled_back;
    auto& pool = util::ThreadPool::global();
    const int prev = pool.threads();
    for (const bool pooled : {false, true}) {
      pool.set_threads(pooled ? 4 : 1);
      comm::run_ranks(2, [&](comm::Communicator& comm) {
        SlabFft3d fft3(comm, n);
        const std::size_t my = fft3.my();
        const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;
        std::vector<Real> phys(fft3.physical_elems());
        for (std::size_t jj = 0; jj < my; ++jj) {
          for (std::size_t k = 0; k < n; ++k) {
            for (std::size_t i = 0; i < n; ++i) {
              phys[i + n * (k + n * jj)] = rval(i, y0 + jj, k);
            }
          }
        }
        std::vector<Complex> spec(fft3.spectral_elems());
        fft3.forward(phys, spec);
        std::vector<Real> back(fft3.physical_elems());
        fft3.inverse(spec, back);
        if (comm.rank() == 0) {
          (pooled ? pooled_spec : inline_spec) = spec;
          (pooled ? pooled_back : inline_back) = back;
        }
      });
    }
    pool.set_threads(prev);
    ASSERT_EQ(inline_spec.size(), pooled_spec.size());
    for (std::size_t i = 0; i < inline_spec.size(); ++i) {
      ASSERT_EQ(inline_spec[i], pooled_spec[i]) << "n=" << n << " i=" << i;
    }
    ASSERT_EQ(inline_back.size(), pooled_back.size());
    for (std::size_t i = 0; i < inline_back.size(); ++i) {
      ASSERT_EQ(inline_back[i], pooled_back[i]) << "n=" << n << " i=" << i;
    }
  }
}

class PencilFftP : public ::testing::TestWithParam<GridCase> {};

TEST_P(PencilFftP, ForwardMatchesSerialReference) {
  const auto [pr, pc] = GetParam();
  const std::size_t n = 16;
  std::vector<Real> full(n * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        full[i + n * (j + n * k)] = rval(i, j, k);
      }
    }
  }
  const std::size_t h = n / 2 + 1;
  std::vector<Complex> want(h * n * n);
  fft::fft3d_r2c(fft::Shape3{n, n, n}, full.data(), want.data());

  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilFft3d fft3(comm, n, pr, pc);
    const auto& g = fft3.grid();
    PencilTranspose helper_ref(comm, g);  // only for rank coordinates
    const std::size_t yl = g.yl(), zl = g.zl(), yl2 = g.yl2();
    const std::size_t y0 = static_cast<std::size_t>(helper_ref.row_rank()) * yl;
    const std::size_t z0 = static_cast<std::size_t>(helper_ref.col_rank()) * zl;

    std::vector<Real> phys(fft3.physical_elems());
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t jj = 0; jj < yl; ++jj) {
        for (std::size_t i = 0; i < n; ++i) {
          phys[i + n * (jj + yl * kk)] = rval(i, y0 + jj, z0 + kk);
        }
      }
    }
    std::vector<Complex> spec(fft3.spectral_elems());
    fft3.forward(phys, spec);

    const auto xr = fft3.x_range();
    const std::size_t ky0 =
        static_cast<std::size_t>(helper_ref.col_rank()) * yl2;
    for (std::size_t jj = 0; jj < yl2; ++jj) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t k = 0; k < n; ++k) {
          const Complex got = spec[k + n * (ii + xr.width() * jj)];
          const Complex ref = want[(xr.x0 + ii) + h * ((ky0 + jj) + n * k)];
          EXPECT_LT(std::abs(got - ref), 1e-9)
              << "pr=" << pr << " pc=" << pc << " kx=" << xr.x0 + ii
              << " ky=" << ky0 + jj << " kz=" << k;
        }
      }
    }
  });
}

TEST_P(PencilFftP, RoundTripScalesByVolume) {
  const auto [pr, pc] = GetParam();
  const std::size_t n = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilFft3d fft3(comm, n, pr, pc);
    util::Rng rng(4, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(fft3.physical_elems());
    for (auto& v : phys) v = rng.gaussian();
    std::vector<Complex> spec(fft3.spectral_elems());
    std::vector<Real> back(fft3.physical_elems());
    fft3.forward(phys, spec);
    fft3.inverse(spec, back);
    const double scale = static_cast<double>(n) * n * n;
    for (std::size_t idx = 0; idx < phys.size(); ++idx) {
      EXPECT_NEAR(back[idx] / scale, phys[idx], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PencilFftP,
    ::testing::Values(GridCase{1, 1}, GridCase{2, 2}, GridCase{4, 2},
                      GridCase{2, 4}),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return "Pr" + std::to_string(pinfo.param.pr) + "Pc" +
             std::to_string(pinfo.param.pc);
    });

}  // namespace
}  // namespace psdns::transpose
