/** Unit tests for the hierarchical statistics registry. */

#include <gtest/gtest.h>

#include "sim/registry.hh"

namespace dssd
{
namespace
{

TEST(StatRegistryTest, CounterValueRoundTrips)
{
    Counter c("reads");
    c.inc(41);
    StatRegistry reg;
    reg.addCounter("ssd0.ch0.reads", &c);
    EXPECT_TRUE(reg.has("ssd0.ch0.reads"));
    EXPECT_DOUBLE_EQ(reg.value("ssd0.ch0.reads"), 41.0);
    c.inc(); // borrowed: later increments are visible
    EXPECT_DOUBLE_EQ(reg.value("ssd0.ch0.reads"), 42.0);
}

TEST(StatRegistryTest, SampleReportsCountAsValue)
{
    SampleStat s("lat");
    s.sample(10);
    s.sample(20);
    StatRegistry reg;
    reg.addSample("host.latency", &s);
    EXPECT_DOUBLE_EQ(reg.value("host.latency"), 2.0);
}

TEST(StatRegistryTest, AggregateSampleIsBuiltAtDumpTime)
{
    // An aggregate registers as a merge of its parts, made when the
    // registry is read: samples taken after registration must show.
    SampleStat reads, writes;
    reads.sample(100);
    StatRegistry reg;
    reg.addSample("host.latency.all", [&reads, &writes] {
        SampleStat all;
        all.merge(reads);
        all.merge(writes);
        return all;
    });
    EXPECT_NE(reg.json().find("\"host.latency.all\": {\"count\": 1, "
                              "\"mean\": 100, \"min\": 100, \"p50\": 100, "
                              "\"p99\": 100, \"p999\": 100, \"max\": 100}"),
              std::string::npos);
    writes.sample(300);
    reads.sample(200);
    EXPECT_DOUBLE_EQ(reg.value("host.latency.all"), 3.0);
    EXPECT_NE(reg.json().find("\"host.latency.all\": {\"count\": 3, "
                              "\"mean\": 200, \"min\": 100, \"p50\": 200, "
                              "\"p99\": 300, \"p999\": 300, \"max\": 300}"),
              std::string::npos);
}

TEST(StatRegistryTest, RateReportsTotalAsValue)
{
    RateSeries r(tickMs);
    r.add(0, 4096);
    r.add(tickMs, 4096);
    StatRegistry reg;
    reg.addRate("host.io_bytes", &r);
    EXPECT_DOUBLE_EQ(reg.value("host.io_bytes"), 8192.0);
}

TEST(StatRegistryTest, ScalarGaugeSampledAtDumpTime)
{
    int held = 3;
    StatRegistry reg;
    reg.addScalar("ssd0.dbuf.held",
                  [&held] { return static_cast<double>(held); });
    EXPECT_DOUBLE_EQ(reg.value("ssd0.dbuf.held"), 3.0);
    held = 7; // gauges are live, not snapshots
    EXPECT_DOUBLE_EQ(reg.value("ssd0.dbuf.held"), 7.0);
}

TEST(StatRegistryTest, PathsComeBackSorted)
{
    Counter a, b, c;
    StatRegistry reg;
    reg.addCounter("z.last", &a);
    reg.addCounter("a.first", &b);
    reg.addCounter("m.middle", &c);
    auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], "a.first");
    EXPECT_EQ(paths[1], "m.middle");
    EXPECT_EQ(paths[2], "z.last");
    EXPECT_EQ(reg.size(), 3u);
}

TEST(StatRegistryTest, JsonContainsEveryKindOfEntry)
{
    Counter c;
    c.inc(5);
    SampleStat s;
    s.sample(1.5);
    RateSeries r(1000);
    r.add(0, 10);
    StatRegistry reg;
    reg.addCounter("x.counter", &c);
    reg.addSample("x.sample", &s);
    reg.addRate("x.rate", &r);
    reg.addScalar("x.gauge", [] { return 2.5; });
    std::string doc = reg.json();
    EXPECT_NE(doc.find("\"x.counter\": 5"), std::string::npos);
    EXPECT_NE(doc.find("\"x.sample\": {\"count\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
    EXPECT_NE(doc.find("\"x.rate\": {\"total\": 10"), std::string::npos);
    EXPECT_NE(doc.find("\"x.gauge\": 2.5"), std::string::npos);
    // The document is brace-balanced (cheap well-formedness check;
    // the CI Python checker parses the real dumps).
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
}

TEST(StatRegistryDeathTest, DuplicatePathIsFatal)
{
    Counter c;
    StatRegistry reg;
    reg.addCounter("dup.path", &c);
    EXPECT_DEATH(reg.addCounter("dup.path", &c), "duplicate stat path");
}

TEST(StatRegistryDeathTest, EmptyPathIsFatal)
{
    Counter c;
    StatRegistry reg;
    EXPECT_DEATH(reg.addCounter("", &c), "empty stat path");
}

TEST(StatRegistryDeathTest, MissingPathValueIsFatal)
{
    StatRegistry reg;
    EXPECT_DEATH((void)reg.value("no.such.stat"), "no stat registered");
}

} // namespace
} // namespace dssd
