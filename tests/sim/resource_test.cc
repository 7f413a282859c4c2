/** Unit tests for BandwidthResource / SlotResource / utilization. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/resource.hh"

namespace dssd
{
namespace
{

TEST(BandwidthResourceTest, TransferDurationMatchesBandwidth)
{
    Engine e;
    // 1 byte per tick.
    BandwidthResource r(e, "bus", 1.0);
    Tick done_at = 0;
    r.transfer(1000, tagIo, [&] { done_at = e.now(); });
    e.run();
    EXPECT_EQ(done_at, 1000u);
}

TEST(BandwidthResourceTest, BackToBackTransfersSerialize)
{
    Engine e;
    BandwidthResource r(e, "bus", 1.0);
    std::vector<Tick> ends;
    r.transfer(100, tagIo, [&] { ends.push_back(e.now()); });
    r.transfer(100, tagIo, [&] { ends.push_back(e.now()); });
    r.transfer(100, tagGc, [&] { ends.push_back(e.now()); });
    e.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_EQ(ends[0], 100u);
    EXPECT_EQ(ends[1], 200u);
    EXPECT_EQ(ends[2], 300u);
}

TEST(BandwidthResourceTest, PerTagAccounting)
{
    Engine e;
    BandwidthResource r(e, "bus", 1.0);
    r.reserve(100, tagIo);
    r.reserve(300, tagGc);
    e.run();
    EXPECT_EQ(r.busyTicks(tagIo), 100u);
    EXPECT_EQ(r.busyTicks(tagGc), 300u);
    EXPECT_EQ(r.totalBusyTicks(), 400u);
    EXPECT_EQ(r.bytesMoved(tagIo), 100u);
    EXPECT_EQ(r.bytesMoved(tagGc), 300u);
}

TEST(BandwidthResourceTest, ZeroByteTransferIsInstant)
{
    Engine e;
    BandwidthResource r(e, "bus", 1.0);
    EXPECT_EQ(r.reserve(0, tagIo), 0u);
}

TEST(BandwidthResourceTest, ReserveFromHonorsEarliestStart)
{
    Engine e;
    BandwidthResource r(e, "bus", 1.0);
    Tick end = r.reserveFrom(500, 100, tagIo);
    EXPECT_EQ(end, 600u);
    // FIFO still applies afterward.
    EXPECT_EQ(r.reserve(100, tagIo), 700u);
}

TEST(BandwidthResourceTest, QueueDelayReflectsBacklog)
{
    Engine e;
    BandwidthResource r(e, "bus", 1.0);
    EXPECT_EQ(r.queueDelay(), 0u);
    r.reserve(250, tagIo);
    EXPECT_EQ(r.queueDelay(), 250u);
}

TEST(UtilizationRecorderTest, SingleWindowFraction)
{
    UtilizationRecorder rec(1000);
    rec.addBusy(0, 250, tagIo);
    auto s = rec.series(tagIo);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0], 0.25);
}

TEST(UtilizationRecorderTest, IntervalSpanningWindowsIsSplit)
{
    UtilizationRecorder rec(1000);
    rec.addBusy(500, 2500, tagGc);
    auto s = rec.series(tagGc);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[0], 0.5);
    EXPECT_DOUBLE_EQ(s[1], 1.0);
    EXPECT_DOUBLE_EQ(s[2], 0.5);
}

TEST(UtilizationRecorderTest, TagsAreIndependent)
{
    UtilizationRecorder rec(100);
    rec.addBusy(0, 50, tagIo);
    rec.addBusy(50, 100, tagGc);
    EXPECT_DOUBLE_EQ(rec.series(tagIo)[0], 0.5);
    EXPECT_DOUBLE_EQ(rec.series(tagGc)[0], 0.5);
}

TEST(UtilizationRecorderTest, BusyFractionOverRange)
{
    UtilizationRecorder rec(100);
    rec.addBusy(0, 100, tagIo);
    rec.addBusy(100, 150, tagIo);
    EXPECT_DOUBLE_EQ(rec.busyFraction(tagIo, 0, 200), 0.75);
}

TEST(BandwidthResourceTest, RecorderSeesTransfers)
{
    Engine e;
    UtilizationRecorder rec(1000);
    BandwidthResource r(e, "bus", 1.0);
    r.attachRecorder(&rec);
    r.reserve(500, tagIo);
    EXPECT_DOUBLE_EQ(rec.series(tagIo)[0], 0.5);
}

TEST(SlotResourceTest, TryAcquireUntilExhausted)
{
    Engine e;
    SlotResource s(e, "buf", 2);
    EXPECT_TRUE(s.tryAcquire());
    EXPECT_TRUE(s.tryAcquire());
    EXPECT_FALSE(s.tryAcquire());
    EXPECT_EQ(s.freeSlots(), 0u);
    s.release();
    EXPECT_TRUE(s.tryAcquire());
}

TEST(SlotResourceTest, WaitersWakeFifo)
{
    Engine e;
    SlotResource s(e, "buf", 1);
    std::vector<int> order;
    s.acquire([&] { order.push_back(0); });
    s.acquire([&] { order.push_back(1); });
    s.acquire([&] { order.push_back(2); });
    e.run();
    // Only the first grant fires; others wait for releases.
    EXPECT_EQ(order, (std::vector<int>{0}));
    s.release();
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    s.release();
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SlotResourceTest, MaxHeldHighWaterMark)
{
    Engine e;
    SlotResource s(e, "buf", 4);
    s.tryAcquire();
    s.tryAcquire();
    s.tryAcquire();
    s.release();
    EXPECT_EQ(s.maxHeld(), 3u);
}

TEST(SlotResourceDeathTest, ReleaseWithoutAcquirePanics)
{
    Engine e;
    SlotResource s(e, "buf", 1);
    EXPECT_DEATH(s.release(), "release without acquire");
}

} // namespace
} // namespace dssd
