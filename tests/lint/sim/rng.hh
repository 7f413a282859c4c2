// Fixture: R1's one exempted file. The seeded wrapper owns the
// standard engines, so this copy of sim/rng.hh stays clean although it
// names std::random_device.

#ifndef DSSD_SIM_RNG_HH
#define DSSD_SIM_RNG_HH

#include <cstdint>
#include <random>

namespace dssd
{

inline std::uint64_t
entropySeed()
{
    std::random_device rd;
    return rd();
}

} // namespace dssd

#endif // DSSD_SIM_RNG_HH
