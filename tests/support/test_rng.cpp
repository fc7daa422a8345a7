#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace hermes {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.fork(1);
  // Child stream should not replay the parent stream.
  Rng parent2(7);
  (void)parent2.fork(1);
  std::set<std::uint64_t> child_vals;
  for (int i = 0; i < 50; ++i) child_vals.insert(child.next_u64());
  int overlap = 0;
  for (int i = 0; i < 50; ++i) {
    if (child_vals.count(parent2.next_u64())) ++overlap;
  }
  EXPECT_LE(overlap, 1);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(90.0, std::sqrt(20.0));
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 90.0, 0.2);
  EXPECT_NEAR(var, 20.0, 1.0);
}

TEST(Rng, GammaMoments) {
  // Gamma(alpha, theta): mean = alpha*theta, var = alpha*theta^2.
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(2.5, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 7.5, 0.15);
  EXPECT_NEAR(var, 22.5, 1.5);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(10);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(0.5, 2.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Rng, InverseGammaMeanMatchesPaperParams) {
  // The paper's intra-region model: inv-gamma alpha=2.5, beta=14.
  // Mean = beta / (alpha - 1) = 9.333 ms.
  Rng rng(11);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.inverse_gamma(2.5, 14.0);
  EXPECT_NEAR(sum / n, 14.0 / 1.5, 0.25);
}

TEST(Rng, ExponentialMean) {
  Rng rng(12);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(14);
  const auto idx = rng.sample_indices(100, 30);
  ASSERT_EQ(idx.size(), 30u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(15);
  const auto idx = rng.sample_indices(10, 10);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 10u);
}

}  // namespace
}  // namespace hermes
