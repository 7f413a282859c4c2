// Fixture: R6 violations — threads, atomics and thread-local storage
// outside sim/engine_group.*.

#include <atomic>  // trip:R6
#include <cstdint>
#include <thread>  // trip:R6

std::atomic<std::uint64_t> gCompleted{0};  // trip:R6
thread_local std::uint64_t tScratch = 0;   // trip:R6

void
drainInBackground()
{
    std::thread worker([] { ++tScratch; });  // trip:R6
    std::this_thread::yield();                // trip:R6
    worker.join();
}
