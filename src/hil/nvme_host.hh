/**
 * @file
 * Multi-queue NVMe-style host front-end: the one host model that
 * every bench, example and test drives.
 *
 * N tenants each own one submission queue with its own depth,
 * arbitration weight/priority, token-bucket rate limit, and latency
 * SLO. An Arbiter decides which queue's head enters the device
 * whenever a shared device slot frees, so tenants contend the way
 * NVMe submission queues do in front of a controller. The paper's
 * figures use the one-tenant case: a single closed-loop queue at
 * depth 64 pumping requests and collecting end-to-end latency and
 * bandwidth.
 *
 * Two per-tenant source modes:
 *
 *  - Closed-loop: the tenant's generator is pulled only while the
 *    tenant holds fewer than queueDepth entries (queued + in flight +
 *    timestamp-held). With a single tenant, round-robin arbitration,
 *    and a device depth equal to the queue depth, the submit
 *    schedule — and therefore every latency sample — is identical to
 *    that of the retired single-queue driver (regression-tested
 *    against its frozen samples).
 *
 *  - Open-loop: requests arrive at their generator-stamped issueAt
 *    times regardless of queue occupancy; the submission queue grows
 *    without bound under overload, which is the point — offered load
 *    beyond capacity shows up as unbounded queueing delay instead of
 *    silently throttling the generator.
 *
 * stop() semantics: no request is ever cancelled. In-flight requests
 * complete, queued closed-loop requests still enter the device, and
 * timestamp-held closed-loop requests still issue. Only open-loop
 * backlog is dropped — waiting arrivals are
 * counted per tenant as `dropped` so an overloaded run's stats are
 * not dominated by the post-window drain.
 *
 * Determinism: the host runs entirely on the (single) host engine and
 * consumes device completions in the engine's deterministic order, so
 * results are byte-identical run to run.
 */

#ifndef DSSD_HIL_NVME_HOST_HH
#define DSSD_HIL_NVME_HOST_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "hil/arbiter.hh"
#include "hil/tenant.hh"
#include "sim/engine.hh"
#include "sim/stats.hh"
#include "workload/generator.hh"

namespace dssd
{

class StatRegistry;

/** Host-wide front-end configuration. */
struct NvmeHostParams
{
    ArbiterPolicy policy = ArbiterPolicy::RoundRobin;
    /// DRR recharge per unit weight (WeightedRoundRobin).
    std::uint64_t quantumBytes = 4 * kKiB;
    /// Shared device-slot budget gating arbitration; 0 means the sum
    /// of tenant queue depths (every SQ entry can be in flight, i.e.
    /// the device never back-pressures arbitration).
    unsigned deviceDepth = 0;
    /// Stat window for bandwidth time series.
    Tick window = tickMs;
};

/** Multi-queue, multi-tenant request front-end (see file comment). */
class NvmeHost
{
  public:
    /** The SSD entry point: process @p req, call the callback at
     *  completion. */
    using SubmitFn =
        std::function<void(const IoRequest &, Engine::Callback)>;

    NvmeHost(Engine &engine, SubmitFn submit,
             const NvmeHostParams &params);

    /**
     * Register a tenant with its request source. Must be called
     * before start(); @p source must outlive the host.
     * @param open_loop arrival-timestamp mode (see file comment).
     * @return the tenant index.
     */
    unsigned addTenant(const TenantParams &params, Generator &source,
                       bool open_loop = false);

    unsigned tenantCount() const
    {
        return static_cast<unsigned>(_tenants.size());
    }

    /** Begin issuing requests. */
    void start();

    /** Stop pulling new requests; drop open-loop backlog (see file
     *  comment for the full semantics). */
    void stop();

    bool finished() const { return _finished; }
    std::uint64_t completed() const { return _completed; }
    unsigned deviceOutstanding() const { return _deviceOutstanding; }
    unsigned deviceDepth() const { return _deviceDepth; }

    /** Aggregate stats across tenants. */
    const SampleStat &readLatency() const { return _readLat; }
    const SampleStat &writeLatency() const { return _writeLat; }
    const SampleStat &allLatency() const { return _allLat; }
    const RateSeries &ioBytes() const { return _ioBytes; }

    /** Per-tenant stats (latency, bandwidth, SLO compliance). */
    const TenantStats &tenantStats(unsigned tenant) const;
    const TenantParams &tenantParams(unsigned tenant) const;
    /** Open-loop requests still waiting in tenant @p tenant's SQ. */
    std::size_t tenantQueued(unsigned tenant) const;

    /** Called once when every source drains and all I/O completes. */
    void onFinished(Engine::Callback cb) { _onFinished = std::move(cb); }

    /**
     * Register aggregate stats under @p prefix (completed,
     * outstanding, latency.{read,write,all}, io_bytes) plus
     * per-tenant stats under "<prefix>.tenant.<i>.*".
     */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /** One submission queue entry. */
    struct SqEntry
    {
        IoRequest req;
        std::uint64_t spanId;
        Tick enqueued;
    };

    /** One tenant: queue, limiter, stats, source. */
    struct Tenant
    {
        TenantParams params;
        std::string name;
        Generator *source;
        bool openLoop;
        TokenBucket bucket;
        TenantStats stats;
        std::deque<SqEntry> queue;
        unsigned inflight = 0;
        /// Closed-loop entries reserved for timestamp-held requests.
        unsigned held = 0;
        bool exhausted = false;
    };

    void pumpTenant(unsigned q);
    void scheduleArrival(unsigned q);
    void enqueue(unsigned q, const IoRequest &req);
    void arbitrate();
    void arbitrateOnce();
    void submitHead(unsigned q);
    void scheduleTokenRetry(Tick at);
    void maybeFinish();

    Engine &_engine;
    SubmitFn _submit;
    Arbiter _arbiter;
    Tick _window;
    unsigned _deviceDepth;
    unsigned _deviceDepthParam;
    unsigned _deviceOutstanding = 0;
    bool _started = false;
    bool _stopped = false;
    bool _finished = false;
    bool _arbitrating = false;
    bool _arbitrateAgain = false;
    /// Earliest pending token-retry event, 0 when none.
    Tick _retryAt = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _nextReqId = 0;
    std::vector<Tenant> _tenants;
    std::vector<ArbiterQueueState> _states; ///< pick() scratch
    SampleStat _readLat{"read-latency"};
    SampleStat _writeLat{"write-latency"};
    SampleStat _allLat{"io-latency"};
    RateSeries _ioBytes;
    Engine::Callback _onFinished;
};

} // namespace dssd

#endif // DSSD_HIL_NVME_HOST_HH
