// Fixture: R1 violations — wall clocks and the C PRNG, called
// directly or pulled in unqualified through a using-declaration.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <random>
#include <sys/time.h>

using std::time;  // trip:R1

std::int64_t
wallClockNs()
{
    auto t = std::chrono::steady_clock::now();  // trip:R1
    return t.time_since_epoch().count();
}

long
epochSeconds()
{
    timeval tv;
    gettimeofday(&tv, nullptr);  // trip:R1
    return tv.tv_sec;
}

long
launderedTime()
{
    std::time_t stamp;
    time(&stamp);  // trip:R1
    return time(nullptr) + clock();  // trip:R1
}

unsigned
unseededDraws()
{
    std::random_device rd;  // trip:R1
    std::srand(rd());       // trip:R1
    return rand();          // trip:R1
}
