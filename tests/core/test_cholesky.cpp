#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/cg.hpp"
#include "core/cholesky.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "core/sparse.hpp"

namespace spinsim {
namespace {

/// Random grounded-network style SPD matrix: graph Laplacian of a random
/// connected graph plus positive ground leaks on some nodes (exactly the
/// structure ResistiveNetwork reduces to).
CsrMatrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder builder(n, n);
  const auto stamp = [&](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    stamp(i, i + 1, rng.uniform(1e-4, 1e-2));
  }
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (i != j) {
      stamp(i, j, rng.uniform(1e-4, 1e-2));
    }
  }
  for (std::size_t i = 0; i < n; i += 2) {
    builder.add(i, i, rng.uniform(1e-5, 1e-3));  // ground leak keeps it PD
  }
  return builder.compress();
}

TEST(SparseLdlt, SolvesKnownSystem) {
  // [4 1; 1 3] x = [1; 2] -> x = [1/11; 7/11].
  CooBuilder builder(2, 2);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  SparseLdlt ldlt;
  ldlt.factorize(builder.compress());
  const std::vector<double> x = ldlt.solve({1.0, 2.0});
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-14);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-14);
}

TEST(SparseLdlt, ResidualIsTinyOnRandomNetworks) {
  for (const std::size_t n : {3u, 17u, 60u, 200u}) {
    const CsrMatrix a = random_spd(n, 1000 + n);
    Rng rng(n);
    std::vector<double> b(n);
    for (auto& v : b) {
      v = rng.uniform(-1e-3, 1e-3);
    }
    SparseLdlt ldlt;
    ldlt.factorize(a);
    const std::vector<double> x = ldlt.solve(b);
    const std::vector<double> ax = a.multiply(x);
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (ax[i] - b[i]) * (ax[i] - b[i]);
      den += b[i] * b[i];
    }
    EXPECT_LT(num, 1e-24 * den) << "n = " << n;
  }
}

TEST(SparseLdlt, AgreesWithCg) {
  const std::size_t n = 120;
  const CsrMatrix a = random_spd(n, 7);
  Rng rng(8);
  std::vector<double> b(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SparseLdlt ldlt;
  ldlt.factorize(a);
  const std::vector<double> x_direct = ldlt.solve(b);

  CgOptions options;
  options.tolerance = 1e-13;
  const CgResult cg = conjugate_gradient(a, b, options);
  ASSERT_TRUE(cg.converged);
  double scale = 0.0;
  for (const double v : cg.x) {
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_direct[i], cg.x[i], 1e-8 * scale);
  }
}

TEST(SparseLdlt, NoOrderingMatchesRcmOrdering) {
  const CsrMatrix a = random_spd(50, 21);
  Rng rng(22);
  std::vector<double> b(50);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SparseLdlt natural;
  LdltOptions no_perm;
  no_perm.use_rcm_ordering = false;
  natural.factorize(a, no_perm);
  SparseLdlt rcm;
  rcm.factorize(a);
  const std::vector<double> x0 = natural.solve(b);
  const std::vector<double> x1 = rcm.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(x0[i], x1[i], 1e-10 * (std::abs(x0[i]) + 1.0));
  }
}

TEST(SparseLdlt, ThrowsOnIndefinite) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);  // eigenvalues 3, -1
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.factorize(builder.compress()), NumericalError);
}

TEST(SparseLdlt, SolveBeforeFactorizeThrows) {
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.solve({1.0}), InvalidArgument);
}

/// Property: every lane of solve_block() is bitwise equal to solve_into()
/// on that lane's vector at every wanted position, for partial and full
/// blocks and for each (first, stop) ordering.
TEST(SparseLdltBlockSolve, LanesBitwiseEqualSolveInto) {
  constexpr std::size_t kB = SparseLdlt::kBlock;
  for (const std::size_t n : {17u, 60u, 200u}) {
    SparseLdlt ldlt;
    ldlt.factorize(random_spd(n, 3000 + n));
    const std::vector<std::size_t>& perm = ldlt.permutation();
    Rng rng(n);
    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, kB}) {
      for (const auto& [first, stop] : {std::pair<std::size_t, std::size_t>{0, 0},
                                        {n / 3, n / 2},
                                        {n / 2, n / 5},
                                        {n - 1, n - 1}}) {
        // Lane c is zero below first + c % 3 and sparse-random above it.
        std::vector<double> block(n * kB, 0.0);
        std::vector<std::vector<double>> rhs(width, std::vector<double>(n, 0.0));
        for (std::size_t c = 0; c < width; ++c) {
          for (std::size_t k = std::min(n - 1, first + c % 3); k < n; ++k) {
            if (k == first || rng.bernoulli(0.3)) {
              const double v = rng.uniform(-1.0, 1.0);
              rhs[c][perm[k]] = v;
              block[k * kB + c] = v;
            }
          }
        }
        ldlt.solve_block(block.data(), first, stop);
        for (std::size_t c = 0; c < width; ++c) {
          const std::vector<double> x = ldlt.solve(rhs[c]);
          for (std::size_t k = stop; k < n; ++k) {
            ASSERT_EQ(std::memcmp(&block[k * kB + c], &x[perm[k]], sizeof(double)), 0)
                << "n = " << n << ", width = " << width << ", first = " << first
                << ", stop = " << stop << ", lane " << c << ", position " << k;
          }
        }
      }
    }
  }
}

TEST(SparseLdltBlockSolve, PositionInvertsPermutation) {
  SparseLdlt ldlt;
  ldlt.factorize(random_spd(40, 7));
  for (std::size_t k = 0; k < 40; ++k) {
    EXPECT_EQ(ldlt.position(ldlt.permutation()[k]), k);
  }
}

TEST(SparseLdltBlockSolve, RejectsBadCalls) {
  std::vector<double> block(4 * SparseLdlt::kBlock, 0.0);
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.solve_block(block.data(), 0, 0), InvalidArgument);
  ldlt.factorize(random_spd(4, 3));
  EXPECT_THROW(ldlt.solve_block(block.data(), 5, 0), InvalidArgument);
  EXPECT_THROW(ldlt.solve_block(block.data(), 0, 5), InvalidArgument);
}

TEST(ReverseCuthillMckee, IsAPermutation) {
  const CsrMatrix a = random_spd(80, 33);
  const std::vector<std::size_t> perm = reverse_cuthill_mckee(a);
  ASSERT_EQ(perm.size(), 80u);
  std::vector<char> seen(80, 0);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, 80u);
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

TEST(ReverseCuthillMckee, ReducesBandwidthOfAGrid) {
  // 2D 12x12 grid Laplacian numbered in a scrambled order: RCM should
  // recover a bandwidth close to the grid width, far below n.
  const std::size_t side = 12;
  const std::size_t n = side * side;
  Rng rng(4);
  std::vector<std::size_t> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) {
    shuffled[i] = i;
  }
  rng.shuffle(shuffled);
  CooBuilder builder(n, n);
  const auto stamp = [&](std::size_t a, std::size_t b) {
    builder.add(shuffled[a], shuffled[b], -1.0);
    builder.add(shuffled[b], shuffled[a], -1.0);
    builder.add(shuffled[a], shuffled[a], 1.0);
    builder.add(shuffled[b], shuffled[b], 1.0);
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        stamp(r * side + c, r * side + c + 1);
      }
      if (r + 1 < side) {
        stamp(r * side + c, (r + 1) * side + c);
      }
    }
  }
  const CsrMatrix a = builder.compress();
  const std::vector<std::size_t> perm = reverse_cuthill_mckee(a);
  std::vector<std::size_t> inv(n);
  for (std::size_t k = 0; k < n; ++k) {
    inv[perm[k]] = k;
  }
  std::size_t bandwidth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      const std::size_t j = a.col_idx()[p];
      const std::size_t d = inv[i] > inv[j] ? inv[i] - inv[j] : inv[j] - inv[i];
      bandwidth = std::max(bandwidth, d);
    }
  }
  EXPECT_LE(bandwidth, 3 * side);  // scrambled order would be ~n
}

}  // namespace
}  // namespace spinsim
