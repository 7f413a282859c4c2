/**
 * @file
 * The SSD top-level shell: owns the architecture-independent substrate
 * (system bus, DRAM, flash channels, FTL mapping, write buffer, GC)
 * and wires the layered subsystems over it:
 *
 *  - Datapath (core/datapath.hh): the architecture strategy — host
 *    read-miss route, SRT address filter, GC copy route, and the
 *    family-specific hardware (front-end ECC vs decoupled controllers
 *    plus interconnect);
 *  - FlushEngine (ftl/flush.hh): background write-buffer drain and the
 *    write-cache backpressure host writes stall on;
 *  - RecoveryEngine (fault/recovery.hh): repair-or-retire handling of
 *    terminal block faults and the copyback fallback.
 *
 * The shell itself keeps only the routes that are identical across
 * architectures (buffer-hit reads, buffered/direct writes) and the
 * host-facing bookkeeping.
 */

#ifndef DSSD_CORE_SSD_HH
#define DSSD_CORE_SSD_HH

#include <memory>
#include <string>
#include <vector>

#include "bus/system_bus.hh"
#include "controller/decoupled.hh"
#include "core/config.hh"
#include "core/datapath.hh"
#include "fault/recovery.hh"
#include "ftl/flush.hh"
#include "ftl/mapping.hh"
#include "ftl/writebuffer.hh"
#include "noc/network.hh"
#include "sim/audit.hh"
#include "sim/engine.hh"
#include "sim/pool.hh"
#include "sim/resource.hh"
#include "sim/rng.hh"
#include "workload/request.hh"

namespace dssd
{

class GcEngine;
class StatRegistry;

/** Aggregated mean latency breakdowns (Fig 9). */
struct BreakdownStats
{
    LatencyBreakdown sum;
    std::uint64_t count = 0;

    void
    add(const LatencyBreakdown &bd)
    {
        sum += bd;
        ++count;
    }

    /** Mean contribution of each component, in ticks. */
    LatencyBreakdown mean() const;
};

/** The simulated SSD. */
class Ssd
{
  public:
    using Callback = Engine::Callback;

    Ssd(Engine &engine, const SsdConfig &config);
    ~Ssd();

    Ssd(const Ssd &) = delete;
    Ssd &operator=(const Ssd &) = delete;

    /**
     * Submit a host request; @p done fires when every page of the
     * request completes.
     */
    void submit(const IoRequest &req, Callback done);

    /** Page-granularity host read. */
    void readPage(Lpn lpn, Callback done);

    /** Page-granularity host write. */
    void writePage(Lpn lpn, Callback done);

    /**
     * Fill the device logically (no simulated time) so GC has work:
     * see PageMapping::prefill.
     */
    void prefill(double fill_fraction, double invalid_fraction);

    Engine &engine() { return _engine; }
    const SsdConfig &config() const { return _config; }
    PageMapping &mapping() { return *_mapping; }
    WriteBuffer &writeBuffer() { return *_writeBuffer; }
    SystemBus &systemBus() { return *_systemBus; }
    Dram &dram() { return *_dram; }
    GcEngine &gc() { return *_gc; }
    FlashChannel &channel(unsigned ch);
    unsigned channelCount() const;

    /** The architecture datapath strategy. */
    Datapath &datapath() { return *_datapath; }

    /** The background write-buffer flusher. */
    FlushEngine &flushEngine() { return *_flush; }

    /** The fault recovery engine; null when faults are disabled. */
    RecoveryEngine *recoveryEngine() { return _recovery.get(); }

    /** Decoupled controller of @p ch; null on Baseline/BW. */
    DecoupledController *decoupledController(unsigned ch)
    {
        return _datapath->controller(ch);
    }

    /** The flash-to-flash interconnect; null on Baseline/BW. */
    Interconnect *interconnect() { return _datapath->interconnect(); }

    /** The fNoC, when arch == DSSDNoc. */
    NocNetwork *noc() { return asNoc(_datapath->interconnect()); }

    /** The fault model; null when config.fault.enabled is false. */
    FaultModel *faultModel() { return _fault.get(); }

    /**
     * Divert terminal block faults to @p sink instead of the built-in
     * repair/retire handling (DynamicSuperblockEngine installs itself
     * so media faults merge into its wear-cycle state machine); null
     * restores the default.
     */
    void setFaultSink(FaultSink *sink)
    {
        if (_recovery)
            _recovery->setOverrideSink(sink);
    }

    /** Windowed system-bus utilization (Fig 2(c,d), Fig 7(b)). */
    UtilizationRecorder &busRecorder() { return *_busRecorder; }

    /**
     * Register this SSD's invariant checks with @p auditor: FTL
     * mapping bijectivity, write-buffer residency, each decoupled
     * controller's copyback/SRT/RBT consistency, and fNoC packet and
     * credit conservation. Check names gain @p prefix (an SsdArray
     * passes "shardN."). The auditor must not outlive this Ssd.
     */
    void registerAudits(Auditor &auditor, const std::string &prefix = "");

    /**
     * The automatically attached auditor of DSSD_AUDIT builds; null
     * otherwise. DSSD_AUDIT_EVERY in the environment overrides the
     * audit interval (executed events between runs; 0 disables the
     * periodic hook).
     */
    Auditor *auditor() { return _auditor.get(); }

    /**
     * Register every component's statistics under @p prefix
     * ("ssd0"): host counters, write buffer, system bus, DRAM,
     * per-channel controllers (bus, page buffer, dies, and — when
     * decoupled — dBUFs, ECC, copyback stages), GC, and the fNoC.
     * The registry borrows; it must not outlive this Ssd.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

    /** Host page operations currently in flight. */
    unsigned ioOutstanding() const { return _ioOutstanding; }

    /**
     * Free blocks and active GC units: the state every free-space wait
     * (direct writes, flushes, GC copies, fault relocation) names when
     * it wedges.
     */
    std::string spaceState() const;

    const BreakdownStats &ioBreakdown() const { return _ioBreakdown; }
    const BreakdownStats &copybackBreakdown() const
    {
        return _cbBreakdown;
    }

    std::uint64_t hostReads() const { return _hostReads; }
    std::uint64_t hostWrites() const { return _hostWritesOps; }
    std::uint64_t flushedPages() const { return _flush->flushedPages(); }

    //
    // Internal datapath entry points for the GC engine.
    //

    /**
     * Move one valid page from @p src to @p dst using this
     * architecture's GC datapath. @p done fires when the destination
     * program completes.
     */
    void gcCopyPage(const PhysAddr &src, const PhysAddr &dst,
                    Callback done);

    /** Erase @p block of @p unit on the flash array. */
    void gcEraseBlock(std::uint32_t unit, std::uint32_t block,
                      Callback done);

  private:
    void readPageInternal(Lpn lpn, Callback done);
    void writePageInternal(Lpn lpn, Callback done);
    /** Buffered write with write-cache backpressure (retries on
     *  _bufferWaits while the buffer is full and the flusher drains). */
    void bufferedWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                       Callback finish);
    /** Direct write with free-space backpressure (retries on
     *  _spaceWaits until GC frees a block). */
    void retryDirectWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                          Callback finish);
    void directWrite(Lpn lpn, std::shared_ptr<LatencyBreakdown> bd,
                     Callback finish);

    /** Apply SRT remapping when this architecture supports it. */
    PhysAddr resolve(const PhysAddr &addr) const
    {
        return _datapath->resolve(addr);
    }

    Engine &_engine;
    SsdConfig _config;
    Rng _rng;
    /// Recycles the per-page-op LatencyBreakdown nodes (the write
    /// path's only steady-state heap traffic). Shared ownership: nodes
    /// parked in pending events pin the pool past this Ssd's lifetime.
    PoolPtr _bdPool = PoolPtr::make();

    std::unique_ptr<UtilizationRecorder> _busRecorder;
    std::unique_ptr<SystemBus> _systemBus;
    std::unique_ptr<Dram> _dram;
    std::vector<std::unique_ptr<FlashChannel>> _channels;
    std::unique_ptr<Datapath> _datapath;
    std::unique_ptr<PageMapping> _mapping;
    std::unique_ptr<WriteBuffer> _writeBuffer;
    std::unique_ptr<GcEngine> _gc;
    std::unique_ptr<FlushEngine> _flush;
    std::unique_ptr<FaultModel> _fault;
    std::unique_ptr<RecoveryEngine> _recovery;
    std::unique_ptr<Auditor> _auditor;
    RetryQueue _bufferWaits; ///< host writes facing a full write buffer
    RetryQueue _spaceWaits;  ///< direct host writes facing no free page

    unsigned _ioOutstanding = 0;
    std::uint64_t _hostReads = 0;
    std::uint64_t _hostWritesOps = 0;
    BreakdownStats _ioBreakdown;
    BreakdownStats _cbBreakdown;
};

} // namespace dssd

#endif // DSSD_CORE_SSD_HH
