#include "nand/die.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace dssd
{

namespace
{

#if DSSD_TRACING
/** Slice label for an array operation. */
const char *
opName(NandOp op)
{
    switch (op) {
      case NandOp::Read:
        return "read";
      case NandOp::Program:
        return "program";
      case NandOp::Erase:
        return "erase";
      case NandOp::LocalCopyback:
        return "local-copyback";
    }
    return "?";
}
#endif

} // namespace

FlashDie::FlashDie(Engine &engine, const FlashGeometry &geom,
                   const NandTiming &timing, std::string name)
    : _engine(engine), _geom(geom), _timing(timing),
      _name(std::move(name)), _planeBusyUntil(geom.planesPerDie, 0)
{
}

Tick
FlashDie::planesBusyUntil(std::uint32_t plane_mask) const
{
    Tick latest = 0;
    for (std::uint32_t p = 0; p < _planeBusyUntil.size(); ++p) {
        if (plane_mask & (1u << p))
            latest = std::max(latest, _planeBusyUntil[p]);
    }
    return latest;
}

Tick
FlashDie::opLatency(NandOp op, std::uint32_t page_in_block) const
{
    switch (op) {
      case NandOp::Read:
        return _timing.readLatency(page_in_block, _geom.pagesPerBlock);
      case NandOp::Program:
        return _timing.programLatency(page_in_block, _geom.pagesPerBlock);
      case NandOp::Erase:
        return _timing.erase;
      case NandOp::LocalCopyback:
        return _timing.readLatency(page_in_block, _geom.pagesPerBlock) +
               _timing.programLatency(page_in_block, _geom.pagesPerBlock);
    }
    panic("unknown NandOp");
}

Tick
FlashDie::reserve(NandOp op, std::uint32_t plane_mask,
                  std::uint32_t page_in_block, Tick earliest)
{
    if (plane_mask == 0)
        panic("reserve with empty plane mask");
    if (op == NandOp::LocalCopyback &&
        __builtin_popcount(plane_mask) != 1) {
        panic("local copyback is restricted to a single plane");
    }

    Tick start = std::max({_engine.now(), earliest,
                           planesBusyUntil(plane_mask)});
    Tick dur = opLatency(op, page_in_block);
    Tick end = start + dur;

    std::uint32_t planes = 0;
    for (std::uint32_t p = 0; p < _planeBusyUntil.size(); ++p) {
        if (plane_mask & (1u << p)) {
            _planeBusyUntil[p] = end;
            ++planes;
        }
    }
    _busyTicks += dur * planes;

    switch (op) {
      case NandOp::Read:
        ++_reads;
        break;
      case NandOp::Program:
        ++_programs;
        break;
      case NandOp::Erase:
        ++_erases;
        break;
      case NandOp::LocalCopyback:
        ++_reads;
        ++_programs;
        break;
    }

#if DSSD_TRACING
    Tracer *tr = _engine.tracer();
    if (tr && !_name.empty()) {
        if (_tracePid < 0) {
            _tracePid = tr->process("nand");
            _traceTid = tr->lane(_tracePid, _name);
        }
        tr->slice(_tracePid, _traceTid, opName(op), "die", start, end);
    }
#endif
    return end;
}

void
FlashDie::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addScalar(prefix + ".reads", [this] {
        return static_cast<double>(_reads);
    });
    reg.addScalar(prefix + ".programs", [this] {
        return static_cast<double>(_programs);
    });
    reg.addScalar(prefix + ".erases", [this] {
        return static_cast<double>(_erases);
    });
    reg.addScalar(prefix + ".busy_ticks", [this] {
        return static_cast<double>(_busyTicks);
    });
}

} // namespace dssd
