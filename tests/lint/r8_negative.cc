// Fixture: R8 near-miss negative control — every shape here skirts
// the rule without violating it, and must produce zero findings.

#include <cstdint>
#include <functional>

struct PoolPtr {
    void *raw = nullptr;
};

struct EngineGroup {
    void postToShard(unsigned shard, std::uint64_t delay,
                     std::function<void()> fn);
};

// A function returning a pooled handle is a declaration, not state.
PoolPtr makePooled();

void
localPooledState(EngineGroup &group)
{
    // Function-local pooled object: owned by this call, not shared.
    PoolPtr scratch = makePooled();
    (void)scratch.raw;

    // Reaching a shard through the group's message path is the
    // sanctioned pattern; "shardEngine()" in a string is not a call.
    const char *how = "never call group.shardEngine(0) here";
    (void)how;
    group.postToShard(1, 100, [] {});
}
