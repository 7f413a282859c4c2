// Fixture: R2 near-miss negative control — an alias chain that lands
// on an ORDERED map, lookups that do not walk a hash container, and
// one walk waived with its reason.

#include <cstdint>
#include <map>
#include <unordered_map>

using L2pTable = std::map<std::uint64_t, std::uint64_t>;
using Mapping = L2pTable;

std::uint64_t
sumMappings(const Mapping &table)
{
    Mapping shadow = table;
    std::uint64_t sum = 0;
    // std::map iterates in key order: deterministic, no finding.
    for (const auto &kv : shadow)
        sum += kv.second;
    return sum;
}

std::uint64_t
lookup(std::uint64_t lpn)
{
    std::unordered_map<std::uint64_t, std::uint64_t> index = {{1, 2}};
    auto it = index.find(lpn);  // find() and end() do not walk
    if (it == index.end())
        return 0;
    std::uint64_t total = 0;
    // Summation is order-independent. lint:allow R2
    for (const auto &kv : index)
        total += kv.second;
    return it->second + total;
}
