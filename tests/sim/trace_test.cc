/** Unit tests for the Chrome trace_event emitter. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/engine.hh"
#include "sim/trace.hh"

namespace dssd
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

class TracerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _path = std::string("/tmp/dssd_trace_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".json";
    }
    void TearDown() override { std::remove(_path.c_str()); }

    std::string _path;
};

TEST_F(TracerTest, DocumentHasHeaderAndFooter)
{
    {
        Tracer tr(_path);
        int pid = tr.process("bus");
        int tid = tr.lane(pid, "system-bus");
        tr.slice(pid, tid, "io", "bus", 1000, 2000);
        tr.finish();
    }
    std::string doc = slurp(_path);
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(doc.find("\"traceEvents\":"), std::string::npos);
    ASSERT_GE(doc.size(), 4u);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");
    // Braces and brackets balance: the document is structurally sound
    // (the CI Python checker does a full parse of real traces).
    EXPECT_EQ(countOccurrences(doc, "{"), countOccurrences(doc, "}"));
    EXPECT_EQ(countOccurrences(doc, "["), countOccurrences(doc, "]"));
}

TEST_F(TracerTest, ProcessAndLaneIdsAreDeduplicated)
{
    Tracer tr(_path);
    int p1 = tr.process("nand");
    int p2 = tr.process("nand");
    int p3 = tr.process("bus");
    EXPECT_EQ(p1, p2);
    EXPECT_NE(p1, p3);
    int l1 = tr.lane(p1, "ch0.d0");
    int l2 = tr.lane(p1, "ch0.d0");
    int l3 = tr.lane(p1, "ch0.d1");
    int l4 = tr.lane(p3, "ch0.d0"); // same name, other process
    EXPECT_EQ(l1, l2);
    EXPECT_NE(l1, l3);
    tr.finish();
    std::string doc = slurp(_path);
    // Each unique row emits exactly one metadata record.
    EXPECT_EQ(countOccurrences(doc, "\"process_name\""), 2u);
    EXPECT_EQ(countOccurrences(doc, "\"thread_name\""), 3u);
    (void)l4;
}

TEST_F(TracerTest, SliceCarriesMicrosecondTimes)
{
    Tracer tr(_path);
    int pid = tr.process("nand");
    int tid = tr.lane(pid, "ch0.d0");
    // 1500 ns -> 1.5 us, duration 2500 ns -> 2.5 us.
    tr.slice(pid, tid, "read", "die", 1500, 4000);
    tr.finish();
    std::string doc = slurp(_path);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"read\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\":1.500"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":2.500"), std::string::npos);
}

TEST_F(TracerTest, AsyncSpansMatchByIdAndCounterSteps)
{
    Tracer tr(_path);
    int pid = tr.process("copyback");
    tr.asyncBegin(pid, "cbstage", "R", 0xabc, 100);
    tr.asyncEnd(pid, "cbstage", "R", 0xabc, 900);
    tr.counter(pid, "dbuf", 500, 3.0);
    tr.finish();
    std::string doc = slurp(_path);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"b\""), 1u);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"e\""), 1u);
    EXPECT_EQ(countOccurrences(doc, "\"id\":\"0xabc\""), 2u);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
}

TEST_F(TracerTest, EventCountTracksEmissions)
{
    Tracer tr(_path);
    EXPECT_EQ(tr.events(), 0u);
    int pid = tr.process("gc"); // 1 metadata event
    int tid = tr.lane(pid, "unit0"); // 1 metadata event
    tr.slice(pid, tid, "round", "gc", 0, 10);
    tr.counter(pid, "active", 0, 1.0);
    EXPECT_EQ(tr.events(), 4u);
    tr.finish();
    EXPECT_EQ(tr.events(), 4u);
}

TEST_F(TracerTest, FinishIsIdempotentAndDestructorFinishes)
{
    {
        Tracer tr(_path);
        tr.process("host");
        tr.finish();
        tr.finish(); // second call is a no-op
    } // destructor runs after finish(): still safe
    std::string doc = slurp(_path);
    EXPECT_EQ(countOccurrences(doc, "]}"), 1u);
}

TEST_F(TracerTest, EngineTracerHookIsOptional)
{
    Engine e;
    EXPECT_EQ(e.tracer(), nullptr);
    Tracer tr(_path);
    e.setTracer(&tr);
    EXPECT_EQ(e.tracer(), &tr);
    e.setTracer(nullptr);
    EXPECT_EQ(e.tracer(), nullptr);
}

TEST(TracerDeathTest, UnwritablePathIsFatal)
{
    EXPECT_DEATH(Tracer("/nonexistent-dir/trace.json"), "cannot open");
}

} // namespace
} // namespace dssd
