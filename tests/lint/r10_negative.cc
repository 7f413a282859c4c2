// Fixture: R10 near-miss negative control — the same shapes done
// safely: 64-bit-wide targets, reporting-edge double conversion, and
// a guarded subtraction.

#include <cstdint>

using Tick = std::uint64_t;

Tick now();

void
wideTicks()
{
    Tick start = now();
    std::uint64_t t64 = static_cast<std::uint64_t>(now());
    Tick elapsed = now() - start;
    // double is a sanctioned reporting-edge conversion (loses
    // precision, not range).
    double ms = static_cast<double>(elapsed) / 1.0e6;
    (void)t64;
    (void)ms;
}

Tick
guardedLatency(Tick issued)
{
    Tick done = now();
    if (done < issued)
        return 0;
    return done - issued;
}
