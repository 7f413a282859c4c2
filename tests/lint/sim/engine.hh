// Fixture: a sim/engine.hh that lost R3's budget contract.  // trip:R3
// Its inline-callback budget shrank to 64 bytes and nothing pins the
// size of the pooled event node any more.

#ifndef DSSD_SIM_ENGINE_HH
#define DSSD_SIM_ENGINE_HH

#include <cstddef>

namespace dssd
{

constexpr std::size_t kInlineCallbackBytes = 64;

struct Event
{
    unsigned char storage[kInlineCallbackBytes];
};

} // namespace dssd

#endif // DSSD_SIM_ENGINE_HH
