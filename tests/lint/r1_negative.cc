// Fixture: R1 near-miss negative control — names that look like clocks
// or the C PRNG but are not, an explicitly seeded engine, a using that
// pulls in no libc clock, and the banned spellings in strings and
// comments.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>

using std::min;

struct Device
{
    std::uint64_t ticks = 0;
    std::uint64_t clock(unsigned scale = 1) const { return ticks * scale; }
    static std::uint64_t time(const char *zone) { return zone ? 1 : 0; }
};

std::uint64_t
runtime(std::uint64_t seed, std::uint64_t cap)
{
    std::chrono::nanoseconds budget{500};  // a duration, not a clock
    std::mt19937_64 gen(seed);             // seeded: reproducible
    std::uint64_t operand = gen() % 7;
    // std::random_device and rand() would be flagged here.
    const char *hint = "call time(nullptr) or rand() and lose determinism";
    (void)hint;
    return min(cap, operand + static_cast<std::uint64_t>(budget.count()));
}

std::uint64_t
deviceClocks(const Device &dev)
{
    // Members named like the libc clocks, qualified or called on an
    // object, are the model's own time.
    return Device::time(nullptr) + dev.clock();
}
