/**
 * @file
 * Hierarchical statistics registry.
 *
 * Modules register their Counters, SampleStats, RateSeries, and scalar
 * gauges under dotted paths ("ssd0.ch3.cd.dbuf_out.max_held"); one
 * call then dumps every registered statistic as an aligned text table
 * or a JSON document. The registry borrows the registered objects —
 * it must not outlive the model it describes — and never copies
 * sample data, so registration is free until a dump is requested.
 * An aggregate distribution registers as a function that merges its
 * parts when the registry is read.
 *
 * This is the SimpleSSD-style per-component stat tree: benches and
 * the CLI build a registry after a run (Ssd::registerStats,
 * NvmeHost::registerStats) and dump it behind --stats FILE.
 */

#ifndef DSSD_SIM_REGISTRY_HH
#define DSSD_SIM_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace dssd
{

/** Borrowing registry of named statistics (see file comment). */
class StatRegistry
{
  public:
    /** Gauge callback sampled at dump time. */
    using ScalarFn = std::function<double()>;
    /** Distribution built at dump time, e.g. a merge of parts. */
    using SampleFn = std::function<SampleStat()>;

    /** Register @p c under @p path. Paths are dotted, unique, and
     *  non-empty; duplicates are fatal(). */
    void addCounter(const std::string &path, const Counter *c);
    void addSample(const std::string &path, const SampleStat *s);
    void addRate(const std::string &path, const RateSeries *r);

    /** Register an aggregate distribution, built each time the
     *  registry is read, so it holds every sample taken until then. */
    void addSample(const std::string &path, SampleFn fn);

    /** Register a scalar gauge evaluated when the registry is
     *  dumped (wraps plain integer accessors of model classes). */
    void addScalar(const std::string &path, ScalarFn fn);

    std::size_t size() const { return _entries.size(); }
    bool has(const std::string &path) const;

    /**
     * Value of the scalar/counter at @p path (SampleStats report
     * their count; RateSeries their total). Fatal() when absent —
     * intended for tests and spot checks.
     */
    double value(const std::string &path) const;

    /** All registered paths, sorted. */
    std::vector<std::string> paths() const;

    /** The JSON document written by writeJson(). */
    std::string json() const;

    /** Write the JSON document to @p path ("-" = stdout);
     *  fatal() if the file cannot be opened. */
    void writeJson(const std::string &path) const;

  private:
    enum class Kind { CounterStat, Sample, Rate, Scalar };

    struct Entry
    {
        std::string path;
        Kind kind;
        const Counter *counter = nullptr;
        const SampleStat *sample = nullptr; ///< else sampleFn
        SampleFn sampleFn;
        const RateSeries *rate = nullptr;
        ScalarFn scalar;
    };

    void insert(Entry entry);
    const Entry *find(const std::string &path) const;
    /** Indices of _entries sorted by path. */
    std::vector<std::size_t> sortedIndex() const;

    std::vector<Entry> _entries;
};

} // namespace dssd

#endif // DSSD_SIM_REGISTRY_HH
