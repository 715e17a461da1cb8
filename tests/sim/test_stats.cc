/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/stats.hh"

using namespace cg::sim;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, MeanAndStddev)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    // Sample variance of this classic data set is 32/7.
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator a;
    a.sample(3.5);
    EXPECT_DOUBLE_EQ(a.mean(), 3.5);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 3.5);
    EXPECT_DOUBLE_EQ(a.max(), 3.5);
}

TEST(Distribution, PercentilesOfKnownData)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.median(), 50.5);
    EXPECT_NEAR(d.percentile(95), 95.05, 1e-9);
    EXPECT_NEAR(d.percentile(99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
}

TEST(Distribution, MeanUnsortedThenSorted)
{
    Distribution d;
    d.sample(3);
    d.sample(1);
    d.sample(2);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 2.0);
    d.sample(10); // re-dirty after a sorted query
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
}

TEST(Distribution, SamplesKeepInsertionOrderAcrossQueries)
{
    // Regression: percentile() used to sort samples_ in place, so the
    // first percentile query flipped samples() from insertion order to
    // sorted order.
    Distribution d;
    d.sample(3.0);
    d.sample(1.0);
    d.sample(2.0);
    const std::vector<double> inserted{3.0, 1.0, 2.0};
    EXPECT_EQ(d.samples(), inserted);
    EXPECT_DOUBLE_EQ(d.percentile(50), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_EQ(d.samples(), inserted) << "query reordered samples()";
    d.sample(0.5); // re-dirty, query again, still insertion order
    EXPECT_DOUBLE_EQ(d.min(), 0.5);
    const std::vector<double> grown{3.0, 1.0, 2.0, 0.5};
    EXPECT_EQ(d.samples(), grown);
    d.reset();
    EXPECT_TRUE(d.samples().empty());
}

TEST(Distribution, P999OfKnownData)
{
    Distribution d;
    for (int i = 1; i <= 10000; ++i)
        d.sample(static_cast<double>(i));
    // rank = (n-1) * 0.999 = 9989.001 -> between 9990 and 9991.
    EXPECT_NEAR(d.percentile(99.9), 9990.001, 1e-6);
    EXPECT_NEAR(d.percentile(99), 9900.01, 1e-6);
}

TEST(Distribution, InterleavedSampleAndPercentileStaysFresh)
{
    // Regression for the sorted-cache staleness class of bug: any
    // sample()/percentile() interleaving must answer as if the cache
    // did not exist. Feed a scrambled deterministic sequence and
    // check every query against a freshly sorted reference.
    Distribution d;
    std::vector<double> ref;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const double v = static_cast<double>(x % 10007);
        d.sample(v);
        ref.push_back(v);
        if (i % 7 == 3 || i % 31 == 0) {
            std::vector<double> sorted = ref;
            std::sort(sorted.begin(), sorted.end());
            for (double p : {1.0, 50.0, 99.0, 99.9}) {
                const double rank =
                    (static_cast<double>(sorted.size()) - 1.0) * p /
                    100.0;
                const auto lo = static_cast<std::size_t>(rank);
                const std::size_t hi =
                    std::min(lo + 1, sorted.size() - 1);
                const double frac = rank - static_cast<double>(lo);
                const double expect =
                    sorted[lo] + frac * (sorted[hi] - sorted[lo]);
                EXPECT_NEAR(d.percentile(p), expect, 1e-9)
                    << "p" << p << " after " << ref.size()
                    << " samples";
            }
        }
    }
}

TEST(Distribution, QueryAfterEverySample)
{
    // The worst case for an incremental cache: a query between every
    // pair of samples, with values arriving in descending order so
    // each merge has to move the new element to the front.
    Distribution d;
    for (int i = 100; i >= 1; --i) {
        d.sample(static_cast<double>(i));
        EXPECT_DOUBLE_EQ(d.percentile(0), static_cast<double>(i));
        EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    }
    EXPECT_DOUBLE_EQ(d.median(), 50.5);
}

TEST(Distribution, RunningMeanMinMaxMatchRecomputation)
{
    // mean()/min()/max() come from running values kept by sample();
    // they must equal a left-to-right re-sum (bit for bit) and a sorted
    // reference under any interleaving of samples, queries and reset.
    Distribution d;
    std::vector<double> ref;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 3000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mixed magnitudes, so the sum's rounding depends on its order.
        const double v = static_cast<double>(x % 1000003) /
                         static_cast<double>(1 + x % 977) * 1e-3;
        d.sample(v);
        ref.push_back(v);
        if (i % 5 == 0 || i % 37 == 1) {
            double sum = 0.0;
            for (double s : ref)
                sum += s;
            const double mean = sum / static_cast<double>(ref.size());
            EXPECT_EQ(d.mean(), mean) << "after " << ref.size();
            std::vector<double> sorted = ref;
            std::sort(sorted.begin(), sorted.end());
            EXPECT_EQ(d.min(), sorted.front()) << "after " << ref.size();
            EXPECT_EQ(d.max(), sorted.back()) << "after " << ref.size();
        }
        if (i % 97 == 50)
            (void)d.percentile(50); // fills the sorted cache meanwhile
        if (i == 1500) {
            d.reset();
            ref.clear();
            EXPECT_EQ(d.mean(), 0.0);
            EXPECT_EQ(d.min(), 0.0);
            EXPECT_EQ(d.max(), 0.0);
        }
    }
}

TEST(Distribution, EmptyAndSingle)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
    d.sample(7.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 7.0);
}

TEST(LatencyStat, UnitConversions)
{
    LatencyStat s;
    s.sample(1 * usec);
    s.sample(3 * usec);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.meanUs(), 2.0);
    EXPECT_DOUBLE_EQ(s.meanNs(), 2000.0);
    EXPECT_DOUBLE_EQ(s.maxUs(), 3.0);
    EXPECT_DOUBLE_EQ(s.meanMs(), 0.002);
}

TEST(LatencyStat, TailPercentilesInBothUnits)
{
    // 999 fast ops and one slow one: p99.9 lands on the boundary
    // between the fast cluster and the outlier.
    LatencyStat s;
    for (int i = 0; i < 999; ++i)
        s.sample(1 * usec);
    s.sample(10 * msec);
    // rank = 999 * 0.999 = 998.001, i.e. 0.1% of the way from the
    // last fast sample into the outlier.
    const double expect_ticks =
        static_cast<double>(1 * usec) +
        0.001 * static_cast<double>(10 * msec - 1 * usec);
    EXPECT_NEAR(s.p999Us(), expect_ticks / 1e6, 1e-6);
    EXPECT_NEAR(s.p999Ms(), expect_ticks / 1e9, 1e-9);
    EXPECT_DOUBLE_EQ(s.p50Us(), 1.0);
    EXPECT_DOUBLE_EQ(s.p50Ms(), 0.001);
}

TEST(TickConversions, Goldens)
{
    // The tick-per-picosecond convention, pinned: every latency
    // report routes through these two helpers.
    EXPECT_DOUBLE_EQ(ticksToUs(1 * usec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToUs(1500 * nsec), 1.5);
    EXPECT_DOUBLE_EQ(ticksToMs(1 * msec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(250 * usec), 0.25);
    EXPECT_DOUBLE_EQ(ticksToUs(static_cast<double>(1 * msec)),
                     1000.0);
    EXPECT_DOUBLE_EQ(ticksToMs(static_cast<double>(1 * sec)),
                     1000.0);
    EXPECT_DOUBLE_EQ(ticksToUs(Tick{0}), 0.0);
    EXPECT_DOUBLE_EQ(ticksToMs(Tick{0}), 0.0);
}

TEST(Stats, FmtDouble)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(2757.6, 1), "2757.6");
}
