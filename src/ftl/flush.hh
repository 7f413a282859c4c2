/**
 * @file
 * Write-buffer flush engine.
 *
 * Drains dirty pages from the WriteBuffer to flash in the background,
 * keeping a bounded number of write-backs in flight. Flushing starts
 * when the buffer crosses its high watermark and stops at the low one;
 * a flush that cannot allocate (free pool exhausted) holds its page
 * and retries on a RetryQueue until GC reclaims a block. The
 * host-visible effect is write-cache backpressure: when the buffer is
 * full, host writes stall on this engine's progress.
 *
 * The engine owns flush *policy and pacing* only. Address resolution
 * and the timed write-back route (DRAM -> system bus -> flash program)
 * are injected by the Ssd shell as callbacks, so this layer depends
 * only on the FTL state it drains — not on buses, channels, or
 * architecture strategies.
 */

#ifndef DSSD_FTL_FLUSH_HH
#define DSSD_FTL_FLUSH_HH

#include <cstdint>
#include <functional>

#include "ftl/mapping.hh"
#include "ftl/writebuffer.hh"
#include "sim/engine.hh"
#include "sim/resource.hh"

namespace dssd
{

/** Background write-buffer drain with bounded in-flight write-backs. */
class FlushEngine
{
  public:
    using Callback = Engine::Callback;
    /** Architecture address filter applied to allocated targets. */
    using ResolveFn = std::function<PhysAddr(const PhysAddr &)>;
    /** Timed write-back of one page to @p target (DRAM -> system bus
     *  -> program); the callback fires when the program completes. */
    using WriteBackFn =
        std::function<void(const PhysAddr &target, Callback done)>;
    /** Allocation notice for the GC trigger (unit index). */
    using AllocNoteFn = std::function<void(std::uint32_t unit)>;

    /**
     * @param space_state describes free space and GC activity for the
     *        error a wedged allocation wait stops with.
     */
    FlushEngine(Engine &engine, PageMapping &mapping, WriteBuffer &buffer,
                unsigned in_flight, ResolveFn resolve,
                WriteBackFn write_back, AllocNoteFn note_allocation,
                RetryQueue::StateFn space_state);

    /** Start draining if the high watermark tripped (idempotent). */
    void maybeStart();

    /** Pages written back to flash so far. */
    std::uint64_t flushedPages() const { return _flushedPages; }

    /** Write-backs currently in flight. */
    unsigned inFlight() const { return _inFlight; }

    /** Whether a drain round is active. */
    bool active() const { return _active; }

    /** Emit the buffer fill level as a trace counter sample. */
    void traceOccupancy();

  private:
    void pump();
    void flushOne(Lpn lpn, Callback done);

    Engine &_engine;
    PageMapping &_mapping;
    WriteBuffer &_buffer;
    unsigned _maxInFlight;
    ResolveFn _resolve;
    WriteBackFn _writeBack;
    AllocNoteFn _note;
    RetryQueue _spaceWaits; ///< write-backs facing an exhausted pool

    bool _active = false;
    unsigned _inFlight = 0;
    std::uint64_t _flushedPages = 0;
    int _tracePid = -1; ///< cached trace row (write-buffer counter)
};

} // namespace dssd

#endif // DSSD_FTL_FLUSH_HH
