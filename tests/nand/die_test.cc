/** Unit tests for the flash die model. */

#include <gtest/gtest.h>

#include "nand/die.hh"

namespace dssd
{
namespace
{

FlashGeometry
geom()
{
    FlashGeometry g;
    g.channels = 1;
    g.ways = 1;
    g.planesPerDie = 4;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 16;
    return g;
}

TEST(DieTest, SinglePlaneReadOccupiesOnePlane)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end = d.reserve(NandOp::Read, 0b0001, 0, 0);
    EXPECT_EQ(end, usToTicks(5));
    EXPECT_EQ(d.planesBusyUntil(0b0001), usToTicks(5));
    EXPECT_EQ(d.planesBusyUntil(0b0010), 0u);
    EXPECT_EQ(d.reads(), 1u);
}

TEST(DieTest, SamePlaneOpsSerialize)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end1 = d.reserve(NandOp::Read, 0b0001, 0, 0);
    Tick end2 = d.reserve(NandOp::Read, 0b0001, 0, 0);
    EXPECT_EQ(end2, end1 + usToTicks(5));
}

TEST(DieTest, DifferentPlanesRunInParallel)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end1 = d.reserve(NandOp::Program, 0b0001, 0, 0);
    Tick end2 = d.reserve(NandOp::Program, 0b0010, 0, 0);
    EXPECT_EQ(end1, end2);
}

TEST(DieTest, MultiPlaneOpOccupiesAllPlanes)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end = d.reserve(NandOp::Program, 0b1111, 0, 0);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(d.planesBusyUntil(1u << p), end);
}

TEST(DieTest, MultiPlaneWaitsForBusiestPlane)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick first = d.reserve(NandOp::Program, 0b0001, 0, 0); // 50us
    Tick multi = d.reserve(NandOp::Read, 0b0011, 0, 0);
    EXPECT_EQ(multi, first + usToTicks(5));
}

TEST(DieTest, EarliestConstraintDelaysStart)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end = d.reserve(NandOp::Read, 0b0001, 0, usToTicks(100));
    EXPECT_EQ(end, usToTicks(105));
}

TEST(DieTest, EraseTakesMilliseconds)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end = d.reserve(NandOp::Erase, 0b0001, 0, 0);
    EXPECT_EQ(end, msToTicks(1));
    EXPECT_EQ(d.erases(), 1u);
}

TEST(DieTest, LocalCopybackIsReadPlusProgram)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    Tick end = d.reserve(NandOp::LocalCopyback, 0b0001, 0, 0);
    EXPECT_EQ(end, usToTicks(55));
    EXPECT_EQ(d.reads(), 1u);
    EXPECT_EQ(d.programs(), 1u);
}

TEST(DieTest, BusyTicksAccountPerPlane)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    d.reserve(NandOp::Read, 0b0011, 0, 0); // 2 planes x 5us
    EXPECT_EQ(d.busyTicks(), 2 * usToTicks(5));
}

TEST(DieDeathTest, EmptyPlaneMaskPanics)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    EXPECT_DEATH(d.reserve(NandOp::Read, 0, 0, 0), "empty plane mask");
}

TEST(DieDeathTest, MultiPlaneLocalCopybackPanics)
{
    Engine e;
    FlashDie d(e, geom(), ullTiming());
    EXPECT_DEATH(d.reserve(NandOp::LocalCopyback, 0b0011, 0, 0),
                 "single plane");
}

} // namespace
} // namespace dssd
