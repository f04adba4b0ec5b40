// Tests for the distributed run-time library: every operation is compared
// against a straightforward sequential reference, swept over rank counts and
// both distribution strategies (TEST_P property sweeps).
#include "rtlib/dmatrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <type_traits>

#include "interp/ops.hpp"
#include "support/matio.hpp"
#include "support/rng.hpp"

namespace otter::rt {
namespace {

using mpi::Comm;
using mpi::ideal;
using mpi::run_spmd;

/// Deterministic test data.
std::vector<double> iota_data(size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = scale * (static_cast<double>(i % 17) - 8.0) +
           0.25 * static_cast<double>(i % 5);
  }
  return v;
}

// gtest has no printer for SweepParam, so each registered test name ends in
// the param's raw bytes. `pad` spells out the three bytes after `dist` that
// were once uninitialised padding and made the names differ from build to
// build; they hold the values the names were first recorded with.
struct SweepParam {
  int nranks;
  Dist dist;
  uint8_t pad[3];
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return "P" + std::to_string(info.param.nranks) +
         (info.param.dist == Dist::RowBlock ? "_block" : "_cyclic");
}

class RtSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  [[nodiscard]] int P() const { return GetParam().nranks; }
  [[nodiscard]] Dist D() const { return GetParam().dist; }

  /// Runs `body` on the sweep's rank count with an ideal network.
  void spmd(const std::function<void(Comm&)>& body) {
    run_spmd(ideal(32), P(), body);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtSweep,
    ::testing::Values(SweepParam{1, Dist::RowBlock, {0x55, 0, 0}},
                      SweepParam{2, Dist::RowBlock, {0xEF, 0x6C, 0xBB}},
                      SweepParam{3, Dist::RowBlock, {0x00, 0, 0}},
                      SweepParam{4, Dist::RowBlock, {0xFF, 0xFF, 0xFF}},
                      SweepParam{7, Dist::RowBlock, {0x00, 0, 0}},
                      SweepParam{8, Dist::RowBlock, {0x55, 0, 0}},
                      SweepParam{1, Dist::Cyclic, {0x00, 0, 0}},
                      SweepParam{2, Dist::Cyclic, {0x55, 0, 0}},
                      SweepParam{3, Dist::Cyclic, {0x55, 0, 0}},
                      SweepParam{5, Dist::Cyclic, {0x7F, 0, 0}},
                      SweepParam{8, Dist::Cyclic, {0x7F, 0, 0}}),
    param_name);

TEST(Layout, RowBlockCoversAllItemsExactlyOnce) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (int p : {1, 2, 3, 7, 16}) {
      Layout l(n, p, Dist::RowBlock);
      std::vector<int> hits(n, 0);
      size_t total = 0;
      for (int r = 0; r < p; ++r) {
        total += l.count(r);
        for (size_t i = 0; i < l.count(r); ++i) {
          size_t g = l.to_global(r, i);
          ASSERT_LT(g, n);
          hits[g]++;
          EXPECT_EQ(l.owner(g), r) << "n=" << n << " p=" << p << " g=" << g;
          EXPECT_EQ(l.to_local(g), i);
        }
      }
      EXPECT_EQ(total, n);
      for (size_t g = 0; g < n; ++g) EXPECT_EQ(hits[g], 1);
    }
  }
}

TEST(Layout, CyclicCoversAllItemsExactlyOnce) {
  for (size_t n : {0u, 1u, 5u, 16u, 33u}) {
    for (int p : {1, 2, 5, 8}) {
      Layout l(n, p, Dist::Cyclic);
      std::vector<int> hits(n, 0);
      for (int r = 0; r < p; ++r) {
        for (size_t i = 0; i < l.count(r); ++i) {
          size_t g = l.to_global(r, i);
          ASSERT_LT(g, n);
          hits[g]++;
          EXPECT_EQ(l.owner(g), r);
          EXPECT_EQ(l.to_local(g), i);
        }
      }
      for (size_t g = 0; g < n; ++g) EXPECT_EQ(hits[g], 1);
    }
  }
}

TEST(Layout, BlockIsContiguous) {
  Layout l(10, 3, Dist::RowBlock);
  for (int r = 0; r < 3; ++r) {
    for (size_t i = 1; i < l.count(r); ++i) {
      EXPECT_EQ(l.to_global(r, i), l.to_global(r, i - 1) + 1);
    }
  }
}

TEST_P(RtSweep, FromFullToFullRoundTripsMatrix) {
  auto data = iota_data(9 * 4);
  spmd([&](Comm& c) {
    DMat m = from_full(c, 9, 4, data, D());
    EXPECT_EQ(to_full(c, m), data);
  });
}

TEST_P(RtSweep, FromFullToFullRoundTripsVectors) {
  auto data = iota_data(13);
  spmd([&](Comm& c) {
    DMat row = from_full(c, 1, 13, data, D());
    EXPECT_EQ(to_full(c, row), data);
    DMat col = from_full(c, 13, 1, data, D());
    EXPECT_EQ(to_full(c, col), data);
  });
}

TEST_P(RtSweep, LocalElementCountsSumToTotal) {
  spmd([&](Comm& c) {
    DMat m(c, 11, 5, D());
    double local = static_cast<double>(m.local_elements());
    double total = c.allreduce_scalar(local, Comm::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(total, 55.0);
  });
}

TEST_P(RtSweep, FillConstructors) {
  spmd([&](Comm& c) {
    EXPECT_EQ(to_full(c, fill_zeros(c, 3, 3, D())),
              std::vector<double>(9, 0.0));
    EXPECT_EQ(to_full(c, fill_ones(c, 2, 5, D())),
              std::vector<double>(10, 1.0));
    auto eye = to_full(c, fill_eye(c, 3, 4, D()));
    for (size_t r = 0; r < 3; ++r) {
      for (size_t cc = 0; cc < 4; ++cc) {
        EXPECT_DOUBLE_EQ(eye[r * 4 + cc], r == cc ? 1.0 : 0.0);
      }
    }
  });
}

TEST_P(RtSweep, RangeMatchesSequential) {
  spmd([&](Comm& c) {
    auto v = to_full(c, fill_range(c, 2.0, 3.0, 14.0, D()));
    std::vector<double> expect = {2, 5, 8, 11, 14};
    EXPECT_EQ(v, expect);
    auto down = to_full(c, fill_range(c, 5.0, -2.0, 0.0, D()));
    std::vector<double> expect2 = {5, 3, 1};
    EXPECT_EQ(down, expect2);
  });
}

TEST_P(RtSweep, RandIsDistributionIndependent) {
  // rand(r, c) must produce the sequential LCG sequence regardless of the
  // rank count or layout.
  std::vector<double> expect(6 * 7);
  Lcg g(42);
  for (double& x : expect) x = g.next();
  spmd([&](Comm& c) {
    auto got = to_full(c, fill_rand(c, 6, 7, 42, 0, D()));
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, RandSeqOffsetContinuesSequence) {
  Lcg g(7);
  for (int i = 0; i < 10; ++i) g.next();
  std::vector<double> expect(4);
  for (double& x : expect) x = g.next();
  spmd([&](Comm& c) {
    auto got = to_full(c, fill_rand(c, 1, 4, 7, 10, D()));
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, GetSetElement) {
  spmd([&](Comm& c) {
    DMat m = fill_zeros(c, 6, 6, D());
    set_element(c, m, 4, 2, 3.25);
    EXPECT_DOUBLE_EQ(get_element(c, m, 4, 2), 3.25);
    EXPECT_DOUBLE_EQ(get_element(c, m, 0, 0), 0.0);
    DMat v = fill_range(c, 1, 1, 8, D());
    EXPECT_DOUBLE_EQ(get_element(c, v, 0, 5), 6.0);
    set_element(c, v, 0, 5, -1.0);
    EXPECT_DOUBLE_EQ(get_element(c, v, 0, 5), -1.0);
  });
}

TEST_P(RtSweep, ElementwiseBinary) {
  auto da = iota_data(8 * 3, 1.0);
  auto db = iota_data(8 * 3, 0.5);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 8, 3, da, D());
    DMat b = from_full(c, 8, 3, db, D());
    auto sum = to_full(c, ew_binary(c, EwBin::Add, a, b));
    auto prod = to_full(c, ew_binary(c, EwBin::Mul, a, b));
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_DOUBLE_EQ(sum[i], da[i] + db[i]);
      EXPECT_DOUBLE_EQ(prod[i], da[i] * db[i]);
    }
  });
}

TEST_P(RtSweep, ElementwiseScalarBroadcast) {
  auto da = iota_data(10);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 1, 10, da, D());
    auto left = to_full(c, ew_binary_scalar(c, EwBin::Sub, a, 2.0, true));
    auto right = to_full(c, ew_binary_scalar(c, EwBin::Sub, a, 2.0, false));
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(left[i], 2.0 - da[i]);
      EXPECT_DOUBLE_EQ(right[i], da[i] - 2.0);
    }
  });
}

TEST_P(RtSweep, ElementwiseUnary) {
  auto da = iota_data(12);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 12, 1, da, D());
    auto neg = to_full(c, ew_unary(c, EwUn::Neg, a));
    auto ab = to_full(c, ew_unary(c, EwUn::Abs, a));
    for (size_t i = 0; i < 12; ++i) {
      EXPECT_DOUBLE_EQ(neg[i], -da[i]);
      EXPECT_DOUBLE_EQ(ab[i], std::fabs(da[i]));
    }
  });
}

TEST_P(RtSweep, UnalignedElementwiseThrows) {
  spmd([&](Comm& c) {
    DMat a = fill_zeros(c, 4, 4, D());
    DMat b = fill_zeros(c, 4, 5, D());
    EXPECT_THROW(ew_binary(c, EwBin::Add, a, b), RtError);
  });
}

TEST_P(RtSweep, MatMulMatchesReference) {
  constexpr size_t M = 9;
  constexpr size_t K = 7;
  constexpr size_t N = 5;
  auto da = iota_data(M * K, 1.0);
  auto db = iota_data(K * N, 2.0);
  std::vector<double> ref(M * N, 0.0);
  for (size_t i = 0; i < M; ++i) {
    for (size_t k = 0; k < K; ++k) {
      for (size_t j = 0; j < N; ++j) {
        ref[i * N + j] += da[i * K + k] * db[k * N + j];
      }
    }
  }
  spmd([&](Comm& c) {
    DMat a = from_full(c, M, K, da, D());
    DMat b = from_full(c, K, N, db, D());
    auto got = to_full(c, matmul(c, a, b));
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-9) << "i=" << i;
    }
  });
}

TEST_P(RtSweep, MatMulInnerMismatchThrows) {
  spmd([&](Comm& c) {
    DMat a = fill_zeros(c, 3, 4, D());
    DMat b = fill_zeros(c, 5, 3, D());
    EXPECT_THROW(matmul(c, a, b), RtError);
  });
}

TEST_P(RtSweep, MatVecMatchesReference) {
  constexpr size_t M = 11;
  constexpr size_t K = 6;
  auto da = iota_data(M * K);
  auto dx = iota_data(K, 3.0);
  std::vector<double> ref(M, 0.0);
  for (size_t i = 0; i < M; ++i) {
    for (size_t k = 0; k < K; ++k) ref[i] += da[i * K + k] * dx[k];
  }
  spmd([&](Comm& c) {
    DMat a = from_full(c, M, K, da, D());
    DMat x = from_full(c, K, 1, dx, D());
    auto got = to_full(c, matvec(c, a, x));
    for (size_t i = 0; i < M; ++i) EXPECT_NEAR(got[i], ref[i], 1e-9);
  });
}

TEST_P(RtSweep, VecMatMatchesReference) {
  constexpr size_t M = 6;
  constexpr size_t N = 9;
  auto da = iota_data(M * N);
  auto dx = iota_data(M, 2.0);
  std::vector<double> ref(N, 0.0);
  for (size_t i = 0; i < M; ++i) {
    for (size_t j = 0; j < N; ++j) ref[j] += dx[i] * da[i * N + j];
  }
  spmd([&](Comm& c) {
    DMat a = from_full(c, M, N, da, D());
    DMat x = from_full(c, 1, M, dx, D());
    auto got = to_full(c, vecmat(c, x, a));
    for (size_t j = 0; j < N; ++j) EXPECT_NEAR(got[j], ref[j], 1e-9);
  });
}

TEST_P(RtSweep, OuterProductMatchesReference) {
  auto dc = iota_data(7, 1.5);
  auto dr = iota_data(5, -2.0);
  spmd([&](Comm& c) {
    DMat col = from_full(c, 7, 1, dc, D());
    DMat row = from_full(c, 1, 5, dr, D());
    auto got = to_full(c, outer(c, col, row));
    for (size_t i = 0; i < 7; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(got[i * 5 + j], dc[i] * dr[j], 1e-12);
      }
    }
  });
}

TEST_P(RtSweep, DotMatchesReference) {
  auto da = iota_data(23);
  auto db = iota_data(23, 0.3);
  double ref = std::inner_product(da.begin(), da.end(), db.begin(), 0.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 23, 1, da, D());
    DMat b = from_full(c, 23, 1, db, D());
    EXPECT_NEAR(dot(c, a, b), ref, 1e-9);
  });
}

TEST_P(RtSweep, Reductions) {
  auto da = iota_data(31);
  double rsum = std::accumulate(da.begin(), da.end(), 0.0);
  double rmin = *std::min_element(da.begin(), da.end());
  double rmax = *std::max_element(da.begin(), da.end());
  spmd([&](Comm& c) {
    DMat a = from_full(c, 1, 31, da, D());
    EXPECT_NEAR(reduce_sum(c, a), rsum, 1e-9);
    EXPECT_DOUBLE_EQ(reduce_min(c, a), rmin);
    EXPECT_DOUBLE_EQ(reduce_max(c, a), rmax);
    EXPECT_NEAR(reduce_mean(c, a), rsum / 31.0, 1e-9);
  });
}

TEST_P(RtSweep, ColwiseSumAndMean) {
  constexpr size_t R = 8;
  constexpr size_t C = 5;
  auto da = iota_data(R * C);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto s = to_full(c, colwise_sum(c, a, false));
    auto m = to_full(c, colwise_sum(c, a, true));
    for (size_t j = 0; j < C; ++j) {
      double ref = 0.0;
      for (size_t i = 0; i < R; ++i) ref += da[i * C + j];
      EXPECT_NEAR(s[j], ref, 1e-9);
      EXPECT_NEAR(m[j], ref / R, 1e-9);
    }
  });
}

TEST_P(RtSweep, ColwiseMinMax) {
  constexpr size_t R = 6;
  constexpr size_t C = 4;
  auto da = iota_data(R * C, -1.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto mn = to_full(c, colwise_minmax(c, a, true));
    auto mx = to_full(c, colwise_minmax(c, a, false));
    for (size_t j = 0; j < C; ++j) {
      double lo = 1e300;
      double hi = -1e300;
      for (size_t i = 0; i < R; ++i) {
        lo = std::min(lo, da[i * C + j]);
        hi = std::max(hi, da[i * C + j]);
      }
      EXPECT_DOUBLE_EQ(mn[j], lo);
      EXPECT_DOUBLE_EQ(mx[j], hi);
    }
  });
}

TEST_P(RtSweep, TransposeMatchesReference) {
  constexpr size_t R = 7;
  constexpr size_t C = 4;
  auto da = iota_data(R * C);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto got = to_full(c, transpose(c, a));
    for (size_t i = 0; i < R; ++i) {
      for (size_t j = 0; j < C; ++j) {
        EXPECT_DOUBLE_EQ(got[j * R + i], da[i * C + j]);
      }
    }
  });
}

TEST_P(RtSweep, TransposeVector) {
  auto da = iota_data(9);
  spmd([&](Comm& c) {
    DMat row = from_full(c, 1, 9, da, D());
    DMat col = transpose(c, row);
    EXPECT_EQ(col.rows(), 9u);
    EXPECT_EQ(col.cols(), 1u);
    EXPECT_EQ(to_full(c, col), da);
  });
}

TEST_P(RtSweep, SliceVector) {
  auto da = iota_data(20);
  spmd([&](Comm& c) {
    DMat v = from_full(c, 1, 20, da, D());
    auto got = to_full(c, slice_vector(c, v, 3, 11));
    std::vector<double> expect(da.begin() + 3, da.begin() + 12);
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, SliceWholeVectorIsIdentity) {
  auto da = iota_data(10);
  spmd([&](Comm& c) {
    DMat v = from_full(c, 10, 1, da, D());
    EXPECT_EQ(to_full(c, slice_vector(c, v, 0, 9)), da);
  });
}

TEST_P(RtSweep, AssignSlice) {
  auto da = iota_data(15);
  auto dv = iota_data(5, 10.0);
  spmd([&](Comm& c) {
    DMat x = from_full(c, 1, 15, da, D());
    DMat v = from_full(c, 1, 5, dv, D());
    assign_slice(c, x, 4, 8, v);
    auto got = to_full(c, x);
    for (size_t i = 0; i < 15; ++i) {
      double expect = (i >= 4 && i <= 8) ? dv[i - 4] : da[i];
      EXPECT_DOUBLE_EQ(got[i], expect) << "i=" << i;
    }
  });
}

TEST_P(RtSweep, ExtractRowAndColumn) {
  constexpr size_t R = 6;
  constexpr size_t C = 8;
  auto da = iota_data(R * C);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto row = to_full(c, extract_row(c, a, 4));
    auto col = to_full(c, extract_col(c, a, 2));
    for (size_t j = 0; j < C; ++j) EXPECT_DOUBLE_EQ(row[j], da[4 * C + j]);
    for (size_t i = 0; i < R; ++i) EXPECT_DOUBLE_EQ(col[i], da[i * C + 2]);
  });
}

TEST_P(RtSweep, AssignRowAndColumn) {
  constexpr size_t R = 5;
  constexpr size_t C = 6;
  auto da = iota_data(R * C);
  auto drow = iota_data(C, 100.0);
  auto dcol = iota_data(R, -50.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    DMat vr = from_full(c, 1, C, drow, D());
    DMat vc = from_full(c, R, 1, dcol, D());
    assign_row(c, a, 2, vr);
    assign_col(c, a, 3, vc);
    auto got = to_full(c, a);
    for (size_t i = 0; i < R; ++i) {
      for (size_t j = 0; j < C; ++j) {
        double expect = da[i * C + j];
        if (i == 2) expect = drow[j];
        if (j == 3) expect = dcol[i];  // column write came second
        EXPECT_DOUBLE_EQ(got[i * C + j], expect) << i << "," << j;
      }
    }
  });
}

TEST_P(RtSweep, TrapzMatchesReference) {
  auto dy = iota_data(27);
  double ref = 0.0;
  for (size_t i = 0; i + 1 < dy.size(); ++i) ref += 0.5 * (dy[i] + dy[i + 1]);
  spmd([&](Comm& c) {
    DMat y = from_full(c, 1, 27, dy, D());
    EXPECT_NEAR(trapz(c, y), ref, 1e-9);
  });
}

TEST_P(RtSweep, TrapzXYMatchesReference) {
  auto dy = iota_data(19);
  std::vector<double> dx(19);
  for (size_t i = 0; i < 19; ++i) dx[i] = 0.3 * static_cast<double>(i * i);
  double ref = 0.0;
  for (size_t i = 0; i + 1 < 19; ++i) {
    ref += 0.5 * (dx[i + 1] - dx[i]) * (dy[i + 1] + dy[i]);
  }
  spmd([&](Comm& c) {
    DMat x = from_full(c, 1, 19, dx, D());
    DMat y = from_full(c, 1, 19, dy, D());
    EXPECT_NEAR(trapz_xy(c, x, y), ref, 1e-9);
  });
}

TEST_P(RtSweep, Norm2) {
  auto dv = iota_data(14);
  double ref = std::sqrt(std::inner_product(dv.begin(), dv.end(), dv.begin(), 0.0));
  spmd([&](Comm& c) {
    DMat v = from_full(c, 14, 1, dv, D());
    EXPECT_NEAR(norm2(c, v), ref, 1e-12);
  });
}

TEST_P(RtSweep, FormatMatchesShape) {
  spmd([&](Comm& c) {
    DMat m = from_full(c, 2, 2, std::vector<double>{1, 2, 3, 4.5}, D());
    std::string s = format_dmat(c, m);
    if (c.rank() == 0) {
      EXPECT_EQ(s, "1 2\n3 4.5\n");
    } else {
      EXPECT_TRUE(s.empty());
    }
  });
}

TEST(RtEdge, EmptyMatrixOps) {
  run_spmd(ideal(8), 3, [](Comm& c) {
    DMat e = fill_zeros(c, 0, 0);
    EXPECT_EQ(e.numel(), 0u);
    EXPECT_EQ(to_full(c, e).size(), 0u);
  });
}

TEST(RtEdge, SingleElementMatrix) {
  run_spmd(ideal(8), 4, [](Comm& c) {
    DMat m = fill_value(c, 1, 1, 6.5);
    EXPECT_DOUBLE_EQ(get_element(c, m, 0, 0), 6.5);
    EXPECT_DOUBLE_EQ(reduce_sum(c, m), 6.5);
  });
}

TEST(RtEdge, MoreRanksThanRows) {
  // 8 ranks, 3-row matrix: some ranks own nothing.
  auto da = iota_data(3 * 4);
  run_spmd(ideal(8), 8, [&](Comm& c) {
    DMat a = from_full(c, 3, 4, da);
    EXPECT_EQ(to_full(c, a), da);
    DMat b = from_full(c, 4, 3, iota_data(12, 2.0));
    auto got = to_full(c, matmul(c, a, b));
    EXPECT_EQ(got.size(), 9u);
  });
}

TEST(RtEdge, OutOfRangeElementThrows) {
  run_spmd(ideal(4), 2, [](Comm& c) {
    DMat m = fill_zeros(c, 3, 3);
    EXPECT_THROW(
        {
          if (c.rank() == 0) get_element(c, m, 5, 0);
          throw RtError("match");  // other ranks throw too: keep lockstep
        },
        RtError);
  });
}

// ---- kernel bit identity ------------------------------------------------------
// matmul, matvec and transpose are tiled for speed; each output element must
// still be the interpreter's: +0.0 plus the k terms in k order. The operands
// mix magnitudes from 2^-30 to 2^30, so any reordering of a sum changes its
// rounding, and carry Inf, -Inf, NaN, -0.0 and subnormals. Results are
// compared bit for bit, except that every NaN is first mapped to the one
// quiet NaN every engine prints (print_form): which NaN `x + y` returns when
// both are NaN depends on the operand order the C++ compiler picks, and an
// ASan build of the interpreter picked differently from a plain one.

/// Deterministic entries: every `special_every`-th one (on average) is an
/// IEEE special, the rest are signed values of widely varying magnitude.
std::vector<double> ieee_data(size_t n, uint64_t seed, size_t special_every) {
  static const double kSpecials[] = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -3.5 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
  };
  std::vector<double> v(n);
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&x] {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 0x2545F4914F6CDD1DULL;
  };
  for (double& e : v) {
    uint64_t r = next();
    if (r % special_every == 0) {
      e = kSpecials[(r >> 32) % std::size(kSpecials)];
    } else {
      double mant = static_cast<double>(r >> 11) * 0x1.0p-53 - 0.5;
      e = std::ldexp(mant, static_cast<int>((r >> 3) % 61) - 30);
    }
  }
  return v;
}

/// The bit patterns of `v`, NaNs canonical (a memcmp that names the
/// differing element).
std::vector<uint64_t> bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    double d = print_form(v[i]);
    std::memcpy(&out[i], &d, sizeof d);
  }
  return out;
}

interp::Value to_value(size_t rows, size_t cols, const std::vector<double>& d) {
  auto m = std::make_shared<interp::Mat>(rows, cols);
  std::copy(d.begin(), d.end(), m->re.begin());
  return interp::Value(std::move(m));
}

std::vector<double> from_value(const interp::Value& v) {
  if (v.is_real()) return {v.real_scalar()};
  const interp::Mat& m = *v.mat();
  return {m.re.begin(), m.re.end()};
}

struct KernelShape {
  size_t m, k, n;         // A is m x k, B is k x n
  size_t special_every;   // IEEE special density of the operands
};

// Tails of the 4x4 register tile, fewer rows than ranks, vector operands and
// results, empty extents, and the transclos size with ragged tails.
const KernelShape kKernelShapes[] = {
    {5, 7, 3, 5},    {4, 4, 4, 7},     {13, 9, 11, 9},  {2, 5, 4, 4},
    {3, 6, 7, 6},    {1, 6, 5, 5},     {6, 5, 1, 5},    {1, 8, 1, 4},
    {7, 1, 4, 3},    {0, 5, 3, 3},     {4, 0, 3, 3},    {5, 3, 0, 3},
    {1, 1, 1, 2},    {97, 384, 383, 2000}, {64, 64, 64, 400},
};

/// Runs `body` at np = 1..4 under both layouts.
void sweep_layouts(const std::function<void(Comm&, Dist)>& body) {
  for (int np = 1; np <= 4; ++np) {
    for (Dist d : {Dist::RowBlock, Dist::Cyclic}) {
      SCOPED_TRACE("np=" + std::to_string(np) +
                   (d == Dist::RowBlock ? " block" : " cyclic"));
      run_spmd(ideal(8), np, [&](Comm& c) { body(c, d); });
    }
  }
}

TEST(RtKernelBits, MatmulMatchesInterpreterBitwise) {
  for (const KernelShape& s : kKernelShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + " * " +
                 std::to_string(s.k) + "x" + std::to_string(s.n));
    auto da = ieee_data(s.m * s.k, s.m * 131 + s.k, s.special_every);
    auto db = ieee_data(s.k * s.n, s.n * 137 + s.k + 1, s.special_every);
    auto want = bits(from_value(
        interp::matmul(to_value(s.m, s.k, da), to_value(s.k, s.n, db), {})));
    sweep_layouts([&](Comm& c, Dist d) {
      DMat a = from_full(c, s.m, s.k, da, d);
      DMat b = from_full(c, s.k, s.n, db, d);
      EXPECT_EQ(bits(to_full(c, matmul(c, a, b))), want);
    });
  }
}

TEST(RtKernelBits, MatvecMatchesInterpreterBitwise) {
  for (const KernelShape& s : kKernelShapes) {
    if (s.k == 0 || s.m == 0) continue;  // x must be a vector
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + " * x");
    auto da = ieee_data(s.m * s.k, s.m * 139 + s.k, s.special_every);
    auto dx = ieee_data(s.k, s.k * 149 + 3, s.special_every);
    auto want = bits(from_value(
        interp::matmul(to_value(s.m, s.k, da), to_value(s.k, 1, dx), {})));
    sweep_layouts([&](Comm& c, Dist d) {
      DMat a = from_full(c, s.m, s.k, da, d);
      DMat x = from_full(c, s.k, 1, dx, d);
      EXPECT_EQ(bits(to_full(c, matvec(c, a, x))), want);
    });
  }
}

TEST(RtKernelBits, TransposeMatchesInterpreterBitwise) {
  for (const KernelShape& s : kKernelShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + "'");
    auto da = ieee_data(s.m * s.k, s.k * 151 + s.m, s.special_every);
    auto want = bits(from_value(
        interp::transpose(to_value(s.m, s.k, da), false, {})));
    sweep_layouts([&](Comm& c, Dist d) {
      DMat a = from_full(c, s.m, s.k, da, d);
      DMat t = transpose(c, a);
      EXPECT_EQ(t.rows(), s.k);
      EXPECT_EQ(t.cols(), s.m);
      EXPECT_EQ(bits(to_full(c, t)), want);
    });
  }
}

// ---- dimension validation (E5007) -------------------------------------------

TEST(RtDims, CheckedDimRejectsBadDoubles) {
  EXPECT_EQ(checked_dim(0.0, "row"), 0u);
  EXPECT_EQ(checked_dim(42.0, "row"), 42u);
  const double bad[] = {-1.0, 2.5,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        9007199254740992.0 /* 2^53 */};
  for (double v : bad) {
    try {
      checked_dim(v, "row");
      FAIL() << "checked_dim(" << v << ") should have thrown";
    } catch (const RtError& e) {
      EXPECT_EQ(e.code, "E5007") << v;
    }
  }
}

TEST(RtDims, CheckExtentsRejectsOverflowingProducts) {
  check_extents(0, 0);  // empty is fine
  check_extents(1, kMaxMatrixElements);
  try {
    check_extents(kMaxMatrixElements, 2);
    FAIL() << "overflow-prone extents should have thrown";
  } catch (const RtError& e) {
    EXPECT_EQ(e.code, "E5007");
  }
}

TEST(RtDims, ConstructorValidatesBeforeAllocating) {
  run_spmd(ideal(1), 1, [](Comm& c) {
    try {
      DMat m(c, kMaxMatrixElements, 8, Dist::RowBlock);
      FAIL() << "DMat with overflowing extents should have thrown";
    } catch (const RtError& e) {
      EXPECT_EQ(e.code, "E5007");
    }
  });
}

}  // namespace
}  // namespace otter::rt
