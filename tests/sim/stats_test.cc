/** Unit tests for statistics collection. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/stats.hh"

namespace dssd
{
namespace
{

TEST(SampleStatTest, MeanMinMax)
{
    SampleStat s("lat");
    s.sample(10);
    s.sample(20);
    s.sample(30);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    EXPECT_DOUBLE_EQ(s.min(), 10.0);
    EXPECT_DOUBLE_EQ(s.max(), 30.0);
    EXPECT_EQ(s.count(), 3u);
}

TEST(SampleStatTest, EmptyStatIsZero)
{
    // Every accessor must be safe and deterministically 0.0 on an
    // empty distribution (no reads of the backing storage).
    SampleStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(SampleStatTest, StreamingMinMaxTracksNegatives)
{
    SampleStat s;
    s.sample(-5);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), -5.0);
    s.sample(-20);
    s.sample(3);
    EXPECT_DOUBLE_EQ(s.min(), -20.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleStatTest, InterleavedPercentileQueriesStayExact)
{
    // Samples that arrive between queries must be folded into the
    // store before the next query reads it.
    SampleStat s;
    for (int i = 1; i <= 1000; ++i)
        s.sample(1001 - i);
    EXPECT_DOUBLE_EQ(s.percentile(99), 990.0);
    EXPECT_DOUBLE_EQ(s.percentile(1), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 500.0);
    // 99.9/100*1000 rounds up past 999 in binary floating point, so
    // nearest-rank lands on the maximum (same as the seed behavior).
    EXPECT_DOUBLE_EQ(s.percentile(99.9), 1000.0);
    for (int i = 0; i < 10; ++i)
        s.sample(2000 + i);
    EXPECT_DOUBLE_EQ(s.percentile(100), 2009.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 505.0);
}

TEST(SampleStatTest, ExactPercentilesNearestRank)
{
    SampleStat s;
    for (int i = 1; i <= 100; ++i)
        s.sample(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
}

TEST(SampleStatTest, PercentileCacheInvalidatedBySample)
{
    SampleStat s;
    s.sample(5);
    EXPECT_DOUBLE_EQ(s.percentile(99), 5.0);
    s.sample(50);
    EXPECT_DOUBLE_EQ(s.percentile(99), 50.0);
}

TEST(SampleStatTest, TailDominatedByOutlier)
{
    SampleStat s;
    for (int i = 0; i < 99; ++i)
        s.sample(1.0);
    s.sample(1000.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.5), 1000.0);
}

TEST(SampleStatTest, SingleSampleIsEveryPercentile)
{
    SampleStat s;
    s.sample(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(SampleStatTest, PercentileZeroIsMinimum)
{
    // p=0 gives rank 0; nearest-rank clamps to the first order
    // statistic rather than reading before the array.
    SampleStat s;
    s.sample(30);
    s.sample(10);
    s.sample(20);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
}

TEST(SampleStatTest, PercentileOutOfRangeIsFatal)
{
    SampleStat s;
    s.sample(1.0);
    EXPECT_DEATH((void)s.percentile(-0.1), "out of range");
    EXPECT_DEATH((void)s.percentile(100.1), "out of range");
}

TEST(SampleStatTest, NearestRankMatchesSortOracle)
{
    // Walking the distinct-value counts must agree with the naive
    // full-sort nearest-rank definition at every integer percentile.
    SampleStat s;
    std::vector<double> vals;
    std::uint64_t x = 12345;
    for (int i = 0; i < 257; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        double v = static_cast<double>(x >> 33);
        vals.push_back(v);
        s.sample(v);
    }
    std::vector<double> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    for (int p = 0; p <= 100; ++p) {
        std::size_t rank = static_cast<std::size_t>(std::ceil(
            p / 100.0 * static_cast<double>(sorted.size())));
        if (rank == 0)
            rank = 1;
        EXPECT_DOUBLE_EQ(s.percentile(p), sorted[rank - 1])
            << "percentile " << p;
    }
}

TEST(SampleStatTest, MergeEqualsOneStoreOfEverySample)
{
    // An aggregate built by merging parts must read, through every
    // accessor, exactly like one stat that received every sample:
    // parts hold folded and pending samples, overlapping and disjoint
    // values, and one part is empty. Integer samples keep the merged
    // sum exact.
    SampleStat whole, parts[3];
    std::uint64_t x = 777;
    for (int i = 0; i < 60000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        double v = static_cast<double>((x >> 40) % 5000);
        if (i % 7 == 0)
            v += 100000.0; // values only part 2 holds
        whole.sample(v);
        parts[i % 7 == 0 ? 2 : (x >> 20) % 2].sample(v);
    }
    SampleStat empty;
    SampleStat merged;
    merged.merge(parts[0]);
    merged.merge(empty);
    merged.merge(parts[1]);
    merged.merge(parts[2]);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.sum(), whole.sum());
    EXPECT_EQ(merged.mean(), whole.mean());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    for (int p = 0; p <= 100; ++p)
        EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << p;
    EXPECT_EQ(merged.percentile(99.9), whole.percentile(99.9));

    // Merging leaves the parts intact, and an empty merge target
    // takes the other's min and max.
    SampleStat again;
    again.merge(empty);
    again.merge(parts[2]);
    EXPECT_EQ(again.count(), parts[2].count());
    EXPECT_EQ(again.min(), parts[2].min());
    EXPECT_EQ(again.max(), parts[2].max());
    EXPECT_EQ(again.percentile(50), parts[2].percentile(50));
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.percentile(50), 0.0);
}

TEST(SampleStatDeathTest, CountPastTwoToTheThirtyTwoIsFatal)
{
    // Merging two stats of one value into each other grows its count
    // as a Fibonacci sequence; the 2^32nd sample of one value must
    // stop the run, not wrap its count.
    auto grow = [] {
        SampleStat a, b;
        a.sample(7.0);
        b.sample(7.0);
        for (int i = 0; i < 64; ++i) {
            a.merge(b);
            b.merge(a);
        }
    };
    EXPECT_DEATH(grow(), "more than 4294967295 samples of 7");
}

TEST(RateSeriesTest, WindowsAccumulate)
{
    RateSeries rs(1000);
    rs.add(10, 4096);
    rs.add(900, 4096);
    rs.add(1100, 4096);
    ASSERT_EQ(rs.windows().size(), 2u);
    EXPECT_DOUBLE_EQ(rs.windows()[0], 8192.0);
    EXPECT_DOUBLE_EQ(rs.windows()[1], 4096.0);
    EXPECT_DOUBLE_EQ(rs.total(), 3 * 4096.0);
}

TEST(RateSeriesTest, BoundaryTickLandsInNextWindow)
{
    // Windows are [k*w, (k+1)*w): a weight at exactly the boundary
    // tick belongs to the following window, and tick 0 to window 0.
    RateSeries rs(1000);
    rs.add(0, 1);
    rs.add(999, 2);
    rs.add(1000, 4);
    rs.add(1999, 8);
    rs.add(2000, 16);
    ASSERT_EQ(rs.windows().size(), 3u);
    EXPECT_DOUBLE_EQ(rs.windows()[0], 3.0);
    EXPECT_DOUBLE_EQ(rs.windows()[1], 12.0);
    EXPECT_DOUBLE_EQ(rs.windows()[2], 16.0);
}

TEST(RateSeriesTest, SparseAdditionsZeroFillSkippedWindows)
{
    RateSeries rs(1000);
    rs.add(100, 5);
    rs.add(4500, 7); // windows 1-3 stay zero
    ASSERT_EQ(rs.windows().size(), 5u);
    EXPECT_DOUBLE_EQ(rs.windows()[0], 5.0);
    EXPECT_DOUBLE_EQ(rs.windows()[1], 0.0);
    EXPECT_DOUBLE_EQ(rs.windows()[2], 0.0);
    EXPECT_DOUBLE_EQ(rs.windows()[3], 0.0);
    EXPECT_DOUBLE_EQ(rs.windows()[4], 7.0);
    EXPECT_DOUBLE_EQ(rs.total(), 12.0);
}

TEST(RateSeriesTest, RatePerSecond)
{
    RateSeries rs(tickMs); // 1 ms windows
    rs.add(0, 1e6);        // 1 MB in the first millisecond
    auto rate = rs.ratePerSec();
    ASSERT_EQ(rate.size(), 1u);
    EXPECT_DOUBLE_EQ(rate[0], 1e9); // = 1 GB/s
}

TEST(RateSeriesTest, AverageRateOverRange)
{
    RateSeries rs(tickMs);
    rs.add(0, 1000);
    rs.add(tickMs, 3000);
    // 4000 units over 2 ms -> 2,000,000 units/s.
    EXPECT_DOUBLE_EQ(rs.averageRate(0, 2 * tickMs), 2e6);
}

TEST(FormatTest, Bandwidth)
{
    EXPECT_EQ(formatBandwidth(2.5e9), "2.50 GB/s");
    EXPECT_EQ(formatBandwidth(51.2e6), "51.20 MB/s");
}

TEST(FormatTest, Latency)
{
    EXPECT_EQ(formatLatency(5000.0), "5.00 us");
    EXPECT_EQ(formatLatency(1.5e6), "1.50 ms");
    EXPECT_EQ(formatLatency(42.0), "42 ns");
}

} // namespace
} // namespace dssd
