// Fixture: R3 near-miss negative control — every capture spelled out,
// by value, by reference, init-captured or this; a subscript; and the
// banned forms only in text.

#include <cstdint>
#include <functional>

struct Engine
{
    void schedule(std::uint64_t delay, std::function<void()> fn);
};

struct Flusher
{
    std::uint64_t pending = 0;

    void
    arm(Engine &engine)
    {
        engine.schedule(50, [this] { ++pending; });
    }
};

void
spelledCaptures(Engine &engine, std::uint64_t lba, std::uint64_t *slots)
{
    std::uint64_t page = lba / 4;
    engine.schedule(100, [page] { (void)page; });
    engine.schedule(200, [&page] { ++page; });
    engine.schedule(300, [base = lba, &page] { page += base; });
    slots[0] = page;  // a subscript, not a capture list
    const char *doc = "[=] and [&] are banned";  // so is [&] here
    (void)doc;
}
