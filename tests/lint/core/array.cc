// Fixture: R8's shard-engine owner. The array front-end owns the shard
// engines, so this copy of core/array.cc may reach into one.

#include <cstdint>

struct EngineGroup
{
    void *shardEngine(unsigned shard);
};

void *
shardFor(EngineGroup &group, std::uint64_t lba, unsigned shards)
{
    return group.shardEngine(static_cast<unsigned>(lba % shards));
}
