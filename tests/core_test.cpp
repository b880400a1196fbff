// Unit tests for the core substrate: Matrix, Rng, ThreadPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "core/thread_pool.h"

namespace sattn {
namespace {

TEST(Matrix, ConstructsWithFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (Index i = 0; i < 3; ++i)
    for (Index j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(m(i, j), 2.5f);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.size(), 0);
}

TEST(Matrix, RowViewAliasesStorage) {
  Matrix m(2, 3);
  auto r1 = m.row(1);
  r1[2] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  EXPECT_EQ(m.row(0).size(), 3u);
}

TEST(Matrix, ResizeReplacesContents) {
  Matrix m(2, 2, 1.0f);
  m.resize(4, 5, -1.0f);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_FLOAT_EQ(m(3, 4), -1.0f);
}

TEST(Matrix, RowMajorLayout) {
  Matrix m(2, 3);
  for (Index i = 0; i < 2; ++i)
    for (Index j = 0; j < 3; ++j) m(i, j) = static_cast<float>(i * 3 + j);
  auto f = m.flat();
  for (std::size_t t = 0; t < 6; ++t) EXPECT_FLOAT_EQ(f[t], static_cast<float>(t));
}

TEST(Dot, MatchesManualComputation) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(a, b), 4.0f - 10.0f + 18.0f);
}

TEST(Axpy, AccumulatesScaled) {
  std::vector<float> x = {1.0f, 2.0f};
  std::vector<float> y = {10.0f, 20.0f};
  axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y[0], 10.5f);
  EXPECT_FLOAT_EQ(y[1], 21.0f);
}

TEST(MatmulNT, SmallExample) {
  Matrix a(2, 2), b(3, 2), c(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  for (Index j = 0; j < 3; ++j) { b(j, 0) = static_cast<float>(j); b(j, 1) = 1.0f; }
  matmul_nt(a, b, c);
  // c[i][j] = a_i . b_j
  EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 7.0f);
}

// matmul_nt widens each 4-row block of A once and scores B's rows with
// dotn; every entry must equal the row dot exactly, including the last,
// partial block and head dims with a vector tail.
TEST(MatmulNT, EqualsRowDotsBitExact) {
  for (const Index d : {1, 3, 8, 129}) {
    Matrix a(7, d), b(5, d), c(7, 5);
    Rng rng(60 + static_cast<std::uint64_t>(d));
    rng.fill_normal(a);
    rng.fill_normal(b);
    matmul_nt(a, b, c);
    for (Index i = 0; i < 7; ++i) {
      for (Index j = 0; j < 5; ++j) {
        EXPECT_EQ(c(i, j), dot(a.row(i), b.row(j))) << "d=" << d << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(MaxAbsDiff, DetectsLargestDeviation) {
  Matrix a(2, 2, 0.0f), b(2, 2, 0.0f);
  b(1, 0) = 0.25f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.25f);
  EXPECT_NEAR(mean_abs_diff(a, b), 0.0625f, 1e-7f);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<Index> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(13);
  for (Index k : {0, 1, 5, 20}) {
    auto s = rng.sample_without_replacement(20, k);
    std::set<Index> uniq(s.begin(), s.end());
    EXPECT_EQ(static_cast<Index>(uniq.size()), k);
    for (Index v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng base(99);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1b = Rng(99).fork(1);
  EXPECT_EQ(f1.next_u64(), f1b.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, FillNormalScalesByStddev) {
  Rng rng(21);
  Matrix m(100, 100);
  rng.fill_normal(m, 2.0f);
  double sum2 = 0.0;
  for (float v : m.flat()) sum2 += static_cast<double>(v) * v;
  EXPECT_NEAR(sum2 / static_cast<double>(m.size()), 4.0, 0.2);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&](Index i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  bool called = false;
  parallel_for(0, [&](Index) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExplicitPoolRuns) {
  ThreadPool pool(2);
  std::atomic<Index> sum{0};
  pool.parallel_for(100, [&](Index i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceOnOneThread) {
  // n below, at and above the worker count: each index is claimed once.
  ThreadPool pool(3);
  for (const Index n : {Index{1}, Index{2}, Index{3}, Index{1000}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](Index i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, NestedCallRunsInline) {
  // A parallel_for issued from inside a pool task runs on that task's
  // thread instead of waiting on workers that may all be busy.
  ThreadPool pool(3);
  std::atomic<int> inner{0}, off_thread{0};
  pool.parallel_for(6, [&](Index) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(50, [&](Index) {
      inner.fetch_add(1);
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 300);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, BackToBackShortLoopsAreRaceFree) {
  // The caller's completion state (counter, mutex, condition variable)
  // lives on its stack and dies when parallel_for returns. If the last
  // worker could signal completion before it is done touching that state,
  // the next call would reuse the frame under it; ThreadSanitizer reports
  // that within this many back-to-back calls.
  ThreadPool pool(3);
  constexpr long kCalls = 200000;
  std::atomic<long> total{0};
  for (long c = 0; c < kCalls; ++c) {
    pool.parallel_for(3, [&](Index i) { total.fetch_add(i + 1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 6 * kCalls);
}

}  // namespace
}  // namespace sattn
