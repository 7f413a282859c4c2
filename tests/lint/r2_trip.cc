// Fixture: R2 violations — walks over unordered containers: one behind
// a two-hop alias chain that only the tree-wide facts resolve, and one
// declared as std::unordered_set right here, walked by begin().

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

using L2pTable = std::unordered_map<std::uint64_t, std::uint64_t>;
using Mapping = L2pTable;  // second hop in the alias chain

std::uint64_t
sumMappings(const Mapping &table)
{
    Mapping shadow = table;
    std::uint64_t sum = 0;
    for (const auto &kv : shadow)  // trip:R2
        sum += kv.second;
    return sum;
}

std::uint64_t
firstDirty()
{
    std::unordered_set<std::uint64_t> dirty = {3, 1, 2};
    return *dirty.begin();  // trip:R2
}
