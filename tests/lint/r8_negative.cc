// Fixture: R8 near-miss negative control — every shape here skirts
// the rule without violating it, and must produce zero findings.

#include <cstdint>
#include <functional>

struct PoolPtr {
    void *raw = nullptr;
};

struct Engine {
    void schedule(std::uint64_t delay, std::function<void()> fn);
};

struct EngineGroup {
    void postToShard(unsigned shard, std::uint64_t delay,
                     std::function<void()> fn);
};

PoolPtr makePooled();

void
confinedUse(Engine &engine, EngineGroup &group)
{
    // Pooled handle captured into a SAME-shard schedule(): the
    // callback runs on the owning shard's thread, so no escape.
    PoolPtr page = makePooled();
    engine.schedule(100, [page] { (void)page.raw; });

    // Crossing the message path with plain values is the sanctioned
    // pattern: copy the payload out, capture no pooled handles.
    std::uint64_t lba = 42;
    unsigned shard = 1;
    group.postToShard(shard, 100, [lba] { (void)lba; });
}

void
localPooledState()
{
    // Function-local pooled object, never captured anywhere: fine.
    PoolPtr scratch = makePooled();
    (void)scratch.raw;
}
