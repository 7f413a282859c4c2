/**
 * @file
 * Statistics collection: scalar counters, sample distributions with
 * exact percentiles, and windowed rate series (bandwidth-over-time).
 */

#ifndef DSSD_SIM_STATS_HH
#define DSSD_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace dssd
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    explicit Counter(std::string name = "") : _name(std::move(name)) {}

    void inc(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    std::uint64_t _value = 0;
};

/**
 * A distribution of samples with exact order statistics.
 *
 * Each distinct value is stored once, with the number of samples that
 * took it, in ascending order; memory grows with the number of
 * distinct values, not with the number of samples. Exact percentiles
 * matter here: the paper's headline results are p99/p99.9 tail
 * latencies. sample() appends to a pending buffer that is radix-sorted
 * and merged into the store once it reaches a quarter of the store's
 * size, so a sample costs amortized O(1) sorting plus a constant share
 * of one linear merge. count/sum/mean/min/max are streaming
 * accumulators; the sum adds in arrival order.
 *
 * merge() adds another distribution's samples, which is how an
 * aggregate (all I/O = reads + writes, a host = its tenants) is read
 * without sampling every request twice. Over integer samples whose
 * sum stays below 2^53, as every latency in ticks does, the merged
 * sum and mean equal those of one stat that received every sample.
 *
 * A value seen 2^32 or more times is fatal rather than miscounted.
 * On an empty distribution every accessor deterministically returns
 * 0.0.
 */
class SampleStat
{
  public:
    explicit SampleStat(std::string name = "") : _name(std::move(name)) {}

    void sample(double v);

    /** Add every sample of @p other, a different stat, as if each
     *  had been sampled here. */
    void merge(const SampleStat &other);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const;
    double min() const;
    double max() const;

    /**
     * Exact percentile via nearest-rank.
     * @param p in [0, 100].
     */
    double percentile(double p) const;

    const std::string &name() const { return _name; }

  private:
    /** Sort the pending samples and merge them into the store. */
    void fold() const;

    std::string _name;
    // The store: distinct samples as order-preserving keys, ascending,
    // and how many samples took each. Folding pending samples in
    // changes the representation only, so const accessors may do it.
    mutable std::vector<std::uint64_t> _keys;
    mutable std::vector<std::uint32_t> _counts;
    mutable std::vector<std::uint64_t> _pending; ///< keys, arrival order
    mutable std::vector<std::uint64_t> _radix;   ///< fold() workspace
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0; ///< streaming; valid iff _count > 0
    double _max = 0.0;
};

/**
 * Accumulates event "weights" (e.g., bytes completed) into fixed time
 * windows, yielding a rate series such as I/O bandwidth per millisecond
 * (the y-axis of Fig 2(a,b)).
 */
class RateSeries
{
  public:
    /** @param window Window width in ticks. */
    explicit RateSeries(Tick window, std::string name = "");

    /** Add @p weight at time @p when. */
    void add(Tick when, double weight);

    /** Sum of weights per window. */
    const std::vector<double> &windows() const { return _sums; }

    /** Rate per window in weight-units per second. */
    std::vector<double> ratePerSec() const;

    /**
     * Total weight over [from, to) divided by the interval in seconds.
     * Sums every window that overlaps [from, to), so @p from and
     * @p to must fall on window boundaries, or nothing may be added
     * after @p to.
     */
    double averageRate(Tick from, Tick to) const;

    double total() const { return _total; }
    Tick window() const { return _window; }
    const std::string &name() const { return _name; }

  private:
    Tick _window;
    std::string _name;
    std::vector<double> _sums;
    double _total = 0.0;
};

/** Format helper: "12.3 GB/s"-style bandwidth string. */
std::string formatBandwidth(double bytes_per_sec);

/** Format helper: latency in the most readable unit (ns/us/ms). */
std::string formatLatency(double ns);

} // namespace dssd

#endif // DSSD_SIM_STATS_HH
