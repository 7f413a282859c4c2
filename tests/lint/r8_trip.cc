// Fixture: R8 shard-confinement violations (seeded, self-contained).
//
// Linted standalone by dssd_lint --self-test; the stubs below mirror
// the shapes of sim/pool.hh and sim/engine_group.hh so the checker
// sees the same facts without include paths. Lines that must fire
// carry a trailing trip marker naming the rule.

#include <cstdint>
#include <functional>

struct PoolPtr {
    void *raw = nullptr;
};

PoolPtr makePooled();

struct EngineGroup {
    void postToShard(unsigned shard, std::uint64_t delay,
                     std::function<void()> fn);
    void postToHost(std::uint64_t when, std::function<void()> fn);
    void *shardEngine(unsigned shard);
};

// File-scope pooled state: reachable from every shard thread.
PoolPtr gScratch;  // trip:R8

void
crossShardEscape(EngineGroup &group)
{
    PoolPtr page = makePooled();
    // Non-atomic refcount handed to another shard's thread.
    group.postToShard(1, 100, [page] { (void)page.raw; });  // trip:R8
    group.postToHost(200, [page] { (void)page.raw; });      // trip:R8
}

void
directShardAccess(EngineGroup &group)
{
    // Model code reaching into a shard engine behind the group's back.
    void *eng = group.shardEngine(0);  // trip:R8
    (void)eng;
}
