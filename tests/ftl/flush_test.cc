/**
 * Unit tests for the write-buffer flush engine: watermark policy,
 * in-flight pacing, the injected resolve/write-back/allocation-note
 * routes, and the allocation-stall retry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ftl/flush.hh"

namespace dssd
{
namespace
{

FlashGeometry
smallGeom()
{
    FlashGeometry g;
    g.channels = 2;
    g.ways = 2;
    g.diesPerWay = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 8;
    g.pageBytes = 4 * kKiB;
    return g;
}

/**
 * FlushEngine over a real mapping/buffer with an instrumented
 * write-back route: fixed service time, concurrency high-water mark,
 * and a record of every resolved target and noted unit.
 */
struct FlushRig
{
    Engine engine;
    PageMapping mapping;
    WriteBuffer buffer;
    unsigned inFlight = 0;
    unsigned maxInFlight = 0;
    std::vector<PhysAddr> targets;
    std::vector<std::uint32_t> notedUnits;
    FlushEngine flush;

    explicit FlushRig(unsigned in_flight = 2, Tick service = 100,
                      std::uint64_t capacity = 10)
        : mapping(MappingParams{smallGeom()}),
          buffer(WriteBufferParams{capacity, BufferMode::Real, 0.8, 0.5}),
          flush(
              engine, mapping, buffer, in_flight,
              [](const PhysAddr &a) { return a; },
              [this, service](const PhysAddr &target,
                              Engine::Callback done) {
                  targets.push_back(target);
                  ++inFlight;
                  maxInFlight = std::max(maxInFlight, inFlight);
                  engine.schedule(service,
                                  [this, done = std::move(done)] {
                      --inFlight;
                      done();
                  });
              },
              [this](std::uint32_t unit) { notedUnits.push_back(unit); },
              nullptr)
    {
    }

    void
    insert(Lpn count)
    {
        for (Lpn l = 0; l < count; ++l)
            buffer.insert(l);
    }
};

TEST(FlushEngineTest, IdleAtOrBelowHighWatermark)
{
    FlushRig rig;
    rig.insert(8); // high watermark is >80% of 10, i.e. 9+
    rig.flush.maybeStart();
    EXPECT_FALSE(rig.flush.active());
    rig.engine.run();
    EXPECT_EQ(rig.flush.flushedPages(), 0u);
    EXPECT_EQ(rig.buffer.occupancy(), 8u);
}

TEST(FlushEngineTest, DrainsToLowWatermarkThenStops)
{
    FlushRig rig;
    rig.insert(9);
    rig.flush.maybeStart();
    EXPECT_TRUE(rig.flush.active());
    rig.engine.run();
    // Drains until occupancy reaches the 50% low watermark.
    EXPECT_EQ(rig.buffer.occupancy(), 5u);
    EXPECT_EQ(rig.flush.flushedPages(), 4u);
    EXPECT_FALSE(rig.flush.active());
    EXPECT_EQ(rig.flush.inFlight(), 0u);
}

TEST(FlushEngineTest, BoundsConcurrentWritebacks)
{
    FlushRig rig(2);
    rig.insert(10);
    rig.flush.maybeStart();
    rig.engine.run();
    EXPECT_EQ(rig.maxInFlight, 2u);
    EXPECT_EQ(rig.flush.flushedPages(), 5u);
}

TEST(FlushEngineTest, NotesAllocationUnitOncePerFlush)
{
    FlushRig rig;
    rig.insert(9);
    rig.flush.maybeStart();
    rig.engine.run();
    ASSERT_EQ(rig.notedUnits.size(), rig.flush.flushedPages());
    for (std::uint32_t unit : rig.notedUnits)
        EXPECT_LT(unit, rig.mapping.unitCount());
}

TEST(FlushEngineTest, ResolveFilterRewritesWritebackTargets)
{
    Engine engine;
    PageMapping mapping(MappingParams{smallGeom()});
    WriteBuffer buffer(
        WriteBufferParams{10, BufferMode::Real, 0.8, 0.5});
    std::vector<PhysAddr> targets;
    FlushEngine flush(
        engine, mapping, buffer, 2,
        [](const PhysAddr &a) {
            PhysAddr out = a;
            out.channel = 1; // architecture filter (e.g. SRT remap)
            return out;
        },
        [&targets, &engine](const PhysAddr &target,
                            Engine::Callback done) {
            targets.push_back(target);
            engine.schedule(10, std::move(done));
        },
        [](std::uint32_t) {}, nullptr);
    for (Lpn l = 0; l < 9; ++l)
        buffer.insert(l);
    flush.maybeStart();
    engine.run();
    ASSERT_FALSE(targets.empty());
    for (const PhysAddr &t : targets)
        EXPECT_EQ(t.channel, 1u);
}

TEST(FlushEngineTest, HoldsFlushWhileFreePoolExhausted)
{
    FlushRig rig;
    // Overwrite-churn a small LPN set until host allocation stalls:
    // each allocate() consumes a fresh page and only invalidates the
    // old one, so the free pool drains with nothing erased.
    Lpn l = 0;
    while (rig.mapping.hostCanAllocate())
        rig.mapping.allocate(l++ % 8);

    rig.insert(9);
    rig.flush.maybeStart();
    EXPECT_TRUE(rig.flush.active());

    // Nothing can flush yet; reclaim space (as GC would) at t = 50 us.
    rig.engine.schedule(usToTicks(50), [&rig] {
        const FlashGeometry &g = rig.mapping.geometry();
        for (std::uint32_t u = 0; u < rig.mapping.unitCount(); ++u) {
            for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
                const BlockState &s = rig.mapping.blockState(u, b);
                if (!s.isFree && !s.isBad && s.validCount == 0 &&
                    s.writePtr == g.pagesPerBlock) {
                    rig.mapping.eraseBlock(u, b);
                }
            }
        }
    });
    rig.engine.run();
    EXPECT_EQ(rig.flush.flushedPages(), 4u);
    // The first write-back could not start before space came back.
    ASSERT_FALSE(rig.targets.empty());
    EXPECT_GE(rig.engine.now(), usToTicks(50));
}

} // namespace
} // namespace dssd
