// Fixture: R8 shard-confinement violations (seeded, self-contained).
//
// Linted standalone by dssd_lint --self-test; the stubs below mirror
// the shapes of sim/pool.hh and sim/engine_group.hh so the checker
// sees the same facts without include paths. Lines that must fire
// carry a trailing trip marker naming the rule.

struct PoolPtr {
    void *raw = nullptr;
};

struct EngineGroup {
    void *shardEngine(unsigned shard);
};

// File-scope pooled state: shared by every experiment in the process.
PoolPtr gScratch;  // trip:R8

void
directShardAccess(EngineGroup &group)
{
    // Model code reaching into a shard engine behind the group's back.
    void *eng = group.shardEngine(0);  // trip:R8
    (void)eng;
}
