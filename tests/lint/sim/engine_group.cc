// Fixture: R6's exempted file. The engine group owns the worker
// threads, so this copy of sim/engine_group.cc may use them.

#include "sim/engine_group.hh"

#include <mutex>
#include <thread>
#include <vector>

namespace dssd
{

void
runWorkers(unsigned n)
{
    std::mutex lock;
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([&lock] { std::lock_guard<std::mutex> g(lock); });
    for (std::thread &w : workers)
        w.join();
}

} // namespace dssd
