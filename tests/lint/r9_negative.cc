// Fixture: R9 near-miss negative control — every stat member is
// registered (via an out-of-line registerStats) and every span pair
// closes, including a dynamic-name pair matched symmetrically.

#include <cstdint>
#include <string>

struct Counter {
    std::uint64_t value = 0;
};
struct SampleStat {
    explicit SampleStat(const char *) {}
};

struct StatRegistry {
    void addCounter(const std::string &, Counter *);
    void addSample(const std::string &, SampleStat *);
};

struct Tracer {
    void asyncBegin(int pid, const char *cat, const char *name,
                    std::uint64_t id, std::uint64_t when);
    void asyncEnd(int pid, const char *cat, const char *name,
                  std::uint64_t id, std::uint64_t when);
};

class TidyStats {
  public:
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    Counter _served;
    SampleStat _queueLat{"queue-latency"};
};

void
TidyStats::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".served", &_served);
    reg.addSample(prefix + ".queue-latency", &_queueLat);
}

void
pairedSpans(Tracer &tracer, const char *stage)
{
    tracer.asyncBegin(1, "io", "read", 7, 100);
    tracer.asyncEnd(1, "io", "read", 7, 160);

    // Dynamic span names resolve to <dyn>; a begin/end pair through
    // the same variable stays matched.
    tracer.asyncBegin(1, stage, stage, 9, 200);
    tracer.asyncEnd(1, stage, stage, 9, 260);
}
