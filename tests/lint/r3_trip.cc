// Fixture: R3 violations — default captures, which hide the capture
// set (and so the inline footprint) of an event callback.

#include <cstdint>
#include <functional>

struct Engine
{
    void schedule(std::uint64_t delay, std::function<void()> fn);
};

void
hiddenCaptures(Engine &engine, std::uint64_t lba)
{
    std::uint64_t page = lba / 4;
    engine.schedule(100, [=] { (void)page; });                // trip:R3
    engine.schedule(200, [&] { ++page; });                    // trip:R3
    engine.schedule(300, [=, &lba] { lba += page; });         // trip:R3
    engine.schedule(400, [&, page] { lba += page; });         // trip:R3
}
