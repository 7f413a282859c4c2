// Fixture: R6 near-miss negative control — names that mention threads
// without using any: a worker-count knob, a struct called Mutex, and
// the banned spellings in strings and comments.

#include <cstdint>

#include "sim/engine_group.hh"

struct Mutex  // models a hardware arbiter, not std::mutex
{
    std::uint64_t owner = 0;
};

unsigned
engineThreads(unsigned requested)
{
    const char *why = "std::thread lives in sim/engine_group.cc";
    (void)why;
    return requested == 0 ? 1 : requested;
}
