/**
 * @file
 * Multi-tenant host front-end: per-tenant parameters, token-bucket
 * rate limiting, and SLO accounting.
 *
 * A tenant is one fleet customer sharing the device through the NVMe
 * host front-end (hil/nvme_host.hh). Each tenant owns a submission
 * queue, an arbitration weight/priority, an optional byte-rate token
 * bucket, and an optional latency SLO. Statistics register under
 * "host.tenant.<id>.*" so per-tenant compliance is visible next to
 * the device-level stats.
 */

#ifndef DSSD_HIL_TENANT_HH
#define DSSD_HIL_TENANT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "workload/request.hh"

namespace dssd
{

class StatRegistry;

/** Static per-tenant configuration. */
struct TenantParams
{
    /// Display name; empty means "t<index>".
    std::string name;
    /// Submission-queue depth (entries the tenant may keep queued or
    /// in flight).
    unsigned queueDepth = 64;
    /// Weighted-round-robin arbitration weight.
    unsigned weight = 1;
    /// Strict-priority arbitration level (higher wins).
    unsigned priority = 0;
    /// Token-bucket rate in bytes/second; 0 = unlimited.
    double rateBytesPerSec = 0.0;
    /// Token-bucket burst in bytes; 0 picks 10 ms worth of rate.
    std::uint64_t burstBytes = 0;
    /// Latency SLO target in microseconds; 0 = no SLO.
    double sloTargetUs = 0.0;
};

/**
 * Parse a --tenants specification: either a plain count ("4", all
 * defaults) or a ';'-separated list of per-tenant "key:value" groups
 * with ','-separated fields:
 *
 *   qd:N       queue depth            w:N       WRR weight
 *   prio:N     priority level         slo:US    latency SLO (us)
 *   rate:B     bytes/sec (k/m/g ok)   burst:B   bucket burst bytes
 *   name:S     display name
 *
 * e.g. "qd:64,w:4,slo:500;qd:64,w:1,rate:200m". Returns nullopt on a
 * malformed spec.
 */
std::optional<std::vector<TenantParams>>
parseTenantSpec(const std::string &spec);

/**
 * Deterministic byte token bucket. Tokens accrue continuously at the
 * configured rate up to the burst cap; a request is admitted when the
 * bucket holds its full byte count. All arithmetic depends only on
 * simulated time, so replays are exact.
 */
class TokenBucket
{
  public:
    /** @param rate_bytes_per_sec 0 disables limiting (always admits).
     *  @param burst_bytes bucket capacity; 0 picks 10 ms of rate. */
    TokenBucket(double rate_bytes_per_sec, std::uint64_t burst_bytes);

    bool limited() const { return _rate > 0.0; }

    /** Accrue tokens up to @p now. */
    void refill(Tick now);

    /** Would a @p bytes request be admitted at @p now? (refills) */
    bool admits(Tick now, std::uint64_t bytes);

    /** Consume @p bytes of tokens (caller checked admits()). */
    void consume(std::uint64_t bytes);

    /**
     * Earliest tick >= @p now at which a @p bytes request could be
     * admitted. Used to schedule a retry when the bucket blocks the
     * queue head.
     */
    Tick nextAdmitTime(Tick now, std::uint64_t bytes);

    double tokens() const { return _tokens; }
    double burst() const { return _burst; }

  private:
    double _rate;   ///< bytes per second; 0 = unlimited
    double _burst;  ///< capacity in bytes
    double _tokens; ///< current fill (starts full)
    Tick _lastRefill = 0;
};

/**
 * Per-tenant runtime statistics: latency distributions, completed
 * bandwidth, and SLO compliance. Owned by the host front-end, one per
 * tenant. Each completion's latency is stored once, by direction; the
 * all-I/O distribution is their merge.
 */
class TenantStats
{
  public:
    /** @param window RateSeries window for the bandwidth series. */
    TenantStats(const TenantParams &params, Tick window);

    /** Record a completion observed at @p now with latency @p lat. */
    void recordCompletion(const IoRequest &req, Tick now, Tick lat);

    /** Record an open-loop arrival dropped at stop(). */
    void recordDrop() { ++_dropped; }

    std::uint64_t completed() const { return _completed; }
    std::uint64_t dropped() const { return _dropped; }
    std::uint64_t sloViolations() const { return _sloViolations; }

    /** Fraction of completions meeting the SLO target (1.0 when no
     *  SLO is configured or nothing completed yet). */
    double sloCompliance() const;

    /** Every completion's latency: reads merged with writes. */
    SampleStat latency() const;
    const SampleStat &readLatency() const { return _readLat; }
    const SampleStat &writeLatency() const { return _writeLat; }
    const RateSeries &ioBytes() const { return _ioBytes; }

    /**
     * Register under @p prefix (e.g. "host.tenant.0"): latency
     * samples, bandwidth series, completion/drop counters, and the
     * SLO target/violations/compliance gauges.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    double _sloTargetNs; ///< 0 = no SLO
    std::uint64_t _completed = 0;
    std::uint64_t _dropped = 0;
    std::uint64_t _sloViolations = 0;
    SampleStat _readLat{"read-latency"};
    SampleStat _writeLat{"write-latency"};
    RateSeries _ioBytes;
};

} // namespace dssd

#endif // DSSD_HIL_TENANT_HH
