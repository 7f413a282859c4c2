// Fixture: R2 violation — a walk over a member that only the companion
// header declares. Linted alone, without the header's facts, only the
// line check's companion-header read can see the member's type.

#include "ftl/r2_companion_trip.hh"

std::uint64_t
Directory::total() const
{
    std::uint64_t sum = 0;
    for (const auto &kv : _byLpn)  // trip:R2
        sum += kv.second;
    return sum;
}
