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
 * Samples are stored verbatim with reserve-ahead growth; percentile()
 * runs nth_element selection on a cached scratch copy (refreshed lazily
 * after new samples) instead of fully sorting. Exact percentiles matter
 * here: the paper's headline results are p99/p99.9 tail latencies.
 * mean()/min()/max() are O(1) streaming accumulators, so per-window
 * bookkeeping never touches the sample vector.
 *
 * On an empty distribution every accessor deterministically returns
 * 0.0 (never reads the backing storage).
 */
class SampleStat
{
  public:
    explicit SampleStat(std::string name = "") : _name(std::move(name)) {}

    void sample(double v);

    /** Pre-size storage for @p n samples (optional; growth is automatic). */
    void reserve(std::size_t n) { _samples.reserve(n); }

    std::uint64_t count() const { return _samples.size(); }
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
    const std::vector<double> &samples() const { return _samples; }

  private:
    std::string _name;
    std::vector<double> _samples;
    mutable std::vector<double> _scratch; ///< selection workspace
    mutable bool _scratchValid = false;
    double _sum = 0.0;
    double _min = 0.0; ///< streaming; valid iff !_samples.empty()
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
