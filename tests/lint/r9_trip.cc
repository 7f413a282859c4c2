// Fixture: R9 completeness violations — an unregistered stat member
// and an async trace span opened but never closed.

#include <cstdint>
#include <string>

struct Counter {
    std::uint64_t value = 0;
};
struct SampleStat {
    explicit SampleStat(const char *) {}
};
struct RateSeries {};

struct StatRegistry {
    void addCounter(const std::string &, Counter *);
    void addSample(const std::string &, SampleStat *);
    void addRate(const std::string &, RateSeries *);
};

struct Tracer {
    void asyncBegin(int pid, const char *cat, const char *name,
                    std::uint64_t id, std::uint64_t when);
    void asyncEnd(int pid, const char *cat, const char *name,
                  std::uint64_t id, std::uint64_t when);
};

class LeakyStats {
  public:
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    Counter _served;
    SampleStat _queueLat{"queue-latency"};  // trip:R9
    RateSeries _bytes;                      // trip:R9
};

void
LeakyStats::registerStats(StatRegistry &reg, const std::string &prefix)
{
    // _queueLat and _bytes are missing: invisible in every --stats dump.
    reg.addCounter(prefix + ".served", &_served);
}

void
danglingSpan(Tracer &tracer)
{
    tracer.asyncBegin(1, "io", "compaction", 7, 100);  // trip:R9
    // ... no asyncEnd("io", "compaction") anywhere in the program.
    tracer.asyncEnd(1, "io", "flush", 8, 200);  // trip:R9
    // ... and this end has no matching begin.
}
