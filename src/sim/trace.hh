/**
 * @file
 * Event tracing: Chrome/Perfetto trace_event JSON emission.
 *
 * A Tracer streams trace events to a file as the model emits them:
 * complete slices for resource occupancy (die array operations, bus
 * and link transfers), async spans for logical operations that hop
 * between components (host requests, copyback R/RE/T/W stages, GC
 * rounds, NoC packets), and counter samples for buffer occupancy.
 * Open the resulting file in https://ui.perfetto.dev or
 * chrome://tracing.
 *
 * Tracing is opt-in per Engine (Engine::setTracer) and costs one
 * pointer null-check per emission site when idle. Building with
 * -DDSSD_TRACE_DISABLED (CMake -DDSSD_TRACE=OFF) compiles every
 * emission site out entirely; the Tracer class itself remains so CLI
 * wiring stays buildable. Emission never schedules events or touches
 * model state, so simulation results are identical with tracing on,
 * off, or compiled out.
 *
 * Track naming: a Perfetto "process" groups one component family
 * ("nand", "bus", "counters", ...) and each lane within it is a
 * "thread" named after the concrete resource ("flash-bus-ch3",
 * "ch0.d2"). Async spans attach to the process row and are matched by
 * (category, id, name).
 *
 * An SsdArray under an EngineGroup hands the host engine's Tracer to
 * every shard engine, so one file holds the whole array's timeline.
 */

#ifndef DSSD_SIM_TRACE_HH
#define DSSD_SIM_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "sim/types.hh"

#if defined(DSSD_TRACE_DISABLED)
#define DSSD_TRACING 0
#else
/** Compile gate for every emission site (see file comment). */
#define DSSD_TRACING 1
#endif

namespace dssd
{

/** Streams Chrome trace_event JSON to a file. */
class Tracer
{
  public:
    /** Opens @p path and writes the document header; fatal() if the
     *  file cannot be created. */
    explicit Tracer(const std::string &path);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Id of the process row named @p name (created on first use, with
     * process_name metadata).
     */
    int process(const std::string &name);

    /** Id of the lane (thread row) @p name within process @p pid. */
    int lane(int pid, const std::string &name);

    /** A complete slice [start, end) on a lane (ph "X"). */
    void slice(int pid, int tid, const char *name, const char *cat,
               Tick start, Tick end);

    /**
     * Async span delimiters (ph "b"/"e"), matched by (cat, id, name)
     * within the process row. Spans with distinct ids may overlap;
     * two with the same key must not (tools/trace_check.py fails it).
     */
    void asyncBegin(int pid, const char *cat, const char *name,
                    std::uint64_t id, Tick when);
    void asyncEnd(int pid, const char *cat, const char *name,
                  std::uint64_t id, Tick when);

    /** A counter sample (ph "C"): the track @p name in process @p pid
     *  steps to @p value at @p when. */
    void counter(int pid, const char *name, Tick when, double value);

    /**
     * A fresh async-span id for emission sites with no id of their own
     * that is unique in the file (a unit index or a per-Ssd counter
     * repeats across the shards of an array). A per-tracer sequence —
     * never an object address — so trace files are a pure function of
     * the simulated schedule: byte-identical run to run.
     */
    std::uint64_t nextSpanId() { return ++_nextSpanId; }

    /** Write the footer and close the file; idempotent (the
     *  destructor calls it). */
    void finish();

    /** Events emitted so far (metadata records included). */
    std::uint64_t events() const { return _events; }

  private:
    void emit(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    std::FILE *_file = nullptr;
    bool _first = true;
    std::uint64_t _events = 0;
    std::uint64_t _nextSpanId = 0;
    int _nextPid = 1;
    std::map<std::string, int> _pids;
    std::map<std::pair<int, std::string>, int> _lanes;
    std::map<int, int> _nextTid;
};

} // namespace dssd

#endif // DSSD_SIM_TRACE_HH
