#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/util/stats.h"

namespace jockey {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The child's stream should not track the parent's subsequent draws.
  double c1 = child.Uniform();
  parent.Uniform();
  Rng parent2(7);
  Rng child2 = parent2.Fork();
  EXPECT_DOUBLE_EQ(c1, child2.Uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, LogNormalMedianApproximatesExpMu) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.LogNormal(std::log(8.0), 0.6));
  }
  EXPECT_NEAR(Quantile(xs, 0.5), 8.0, 0.4);
}

TEST(RngTest, NormalMatchesLibraryDistributionDrawForDraw) {
  Rng ours(77);
  Mt19937_64 reference = Rng(77).engine();
  const double params[][2] = {{0.0, 1.0}, {3.5, 0.25}, {-2.0, 7.0}, {1e6, 1e-3}};
  for (int i = 0; i < 4000; ++i) {
    const double mean = params[i % 4][0];
    const double stddev = params[i % 4][1];
    const double want = std::normal_distribution<double>(mean, stddev)(reference);
    ASSERT_EQ(ours.Normal(mean, stddev), want) << "draw " << i;
  }
  EXPECT_TRUE(ours.engine() == reference);
}

// The in-repo engine must be std::mt19937_64 word for word: every seeded stream,
// table and digest in the repository was recorded against the library engine.
// 1,000 draws cross three refills of the 312-word state.
TEST(RngTest, EngineMatchesStdMt19937_64DrawForDraw) {
  std::vector<uint64_t> seeds = {0, 5489, ~uint64_t{0}};
  for (uint64_t a : {0, 1, 7}) {
    seeds.push_back(Rng::CounterSeed(31, a, 2 * a + 1));
  }
  for (uint64_t seed : seeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << ", draw " << i;
    }
  }
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
}

// [rand.predef]: the 10000th consecutive invocation of a default-constructed
// mt19937_64 (seed 5489) produces 9981545732273789042.
TEST(RngTest, EngineTenThousandthDrawIsTheStandardValue) {
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) {
    engine();
  }
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(RngTest, NormalWithZeroStddevReturnsTheMean) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Normal(0.25, 0.0), 0.25);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(s.mean(), 4.0, 0.15);
}

TEST(RngTest, NearbySeedsDecorrelated) {
  // The splitmix finalizer should keep sequentially-seeded generators independent.
  Rng a(100);
  Rng b(101);
  RunningStats diff;
  for (int i = 0; i < 1000; ++i) {
    diff.Add(a.Uniform() - b.Uniform());
  }
  EXPECT_NEAR(diff.mean(), 0.0, 0.05);
}

}  // namespace
}  // namespace jockey
