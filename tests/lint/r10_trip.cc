// Fixture: R10 tick-safety violations — narrowing casts and
// declarations that truncate a u64 nanosecond count, plus an
// unguarded latency subtraction.

#include <cstdint>

using Tick = std::uint64_t;

Tick now();

void
truncateTicks()
{
    Tick start = now();
    std::uint32_t t32 = static_cast<std::uint32_t>(now());  // trip:R10
    int delta = static_cast<int>(now() - start);            // trip:R10
    long span = now() - start;                              // trip:R10
    (void)t32;
    (void)delta;
    (void)span;
}

Tick
unguardedLatency(Tick issued)
{
    Tick done = now();
    // No visible ordering guard between the operands: wraps if the
    // pair is ever reversed.
    return done - issued;  // trip:R10
}

void record(unsigned value);

void
logNow()
{
    // A cast alone, with no declaration to seed.
    record(static_cast<unsigned>(now()));  // trip:R10
}
