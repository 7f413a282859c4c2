/**
 * @file
 * fNoC network model: packet-granularity virtual cut-through with
 * credit-based (finite input buffer) backpressure.
 *
 * A packet carries one page plus a header ("the data is appended with
 * the command information as well as the packet header"). At each hop
 * the packet (1) waits for an input-buffer credit at the downstream
 * router, (2) serializes over the link (bytes / link-bandwidth), and
 * (3) incurs the router pipeline + wire latency. Transmission on hop
 * h+1 begins when the head arrives (cut-through), so a long packet
 * occupies consecutive links simultaneously but each link only for its
 * serialization time — bandwidth behaviour matches a wormhole network
 * at packet granularity.
 *
 * Ring deadlock freedom uses the classic dateline rule: packets switch
 * to virtual channel 1 when crossing the wrap-around link.
 */

#ifndef DSSD_NOC_NETWORK_HH
#define DSSD_NOC_NETWORK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bus/interconnect.hh"
#include "noc/topology.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace dssd
{

class AuditReport;
class FaultModel;
class StatRegistry;

/** Tunables for the fNoC (Fig 12/13 sweep these). */
struct NocParams
{
    /// Per-link (router channel) bandwidth. The paper expresses this as
    /// a ratio to the 1 GB/s flash-channel bandwidth.
    BytesPerTick linkBandwidth = gbPerSec(2.0);
    /// Router pipeline + link traversal latency per hop.
    Tick hopLatency = 10;
    /// Input buffer depth per router per virtual channel, in packets.
    unsigned bufferPackets = 4;
    /// Packet header + command/address overhead appended to the page.
    std::uint64_t headerBytes = 32;
};

/**
 * The flash-controller network-on-chip. Implements Interconnect so
 * the dSSD_f configuration can plug it into the copyback datapath.
 */
class NocNetwork : public Interconnect
{
  public:
    NocNetwork(Engine &engine, std::unique_ptr<Topology> topo,
               const NocParams &params);

    InterconnectKind kind() const override
    {
        return InterconnectKind::Noc;
    }

    /** Inject a packet of @p bytes payload from @p src to @p dst. */
    void send(unsigned src, unsigned dst, std::uint64_t bytes, int tag,
              Callback done) override;

    Tick totalBusyTicks() const override;
    std::uint64_t bytesDelivered() const override { return _bytesDelivered; }

    std::uint64_t packetsDelivered() const { return _packetsDelivered; }
    std::uint64_t packetsInFlight() const { return _inFlight; }
    std::uint64_t packetsInjected() const { return _packetsInjected; }
    /** Packets whose CRC check failed at the destination NI. */
    std::uint64_t crcDrops() const { return _crcDrops; }
    /** Completed NACK/timeout retransmissions. */
    std::uint64_t retransmits() const { return _retransmits; }

    /**
     * Attach the fault model (null = fault-free). Each delivery then
     * samples a CRC check; corrupted packets are dropped at the
     * destination NI and retransmitted from the source after the
     * NACK/timeout delay, without disturbing credit accounting.
     */
    void setFaultModel(FaultModel *fault) { _fault = fault; }

    /** Test hook: corrupt the next delivery attempt (FIFO count),
     *  regardless of the fault model's CRC probability. */
    void debugCorruptNext() { ++_forceCorrupt; }

    /** End-to-end packet latency distribution (ticks). */
    const SampleStat &latency() const { return _latency; }

    const Topology &topology() const { return *_topo; }
    const NocParams &params() const { return _params; }

    /** Per-link busy ticks, for utilization reporting. */
    Tick linkBusyTicks(unsigned link) const;

    /**
     * Cross-check flit/credit conservation: injected packets equal
     * delivered plus in-flight, input-buffer credit counts never
     * exceed their capacity, and an idle network (nothing in flight)
     * holds every credit free. See sim/audit.hh.
     */
    void audit(AuditReport &report) const;

    /**
     * Fault-injection hook for auditor tests ONLY: silently consume
     * one input-buffer credit on @p link / @p vc, as a lost credit
     * release would.
     */
    void debugDropCredit(unsigned link, unsigned vc);

    /** Register packet counters, latency, links, and buffers under
     *  @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    struct Transit;

    /** Open/close the end-to-end per-packet trace span. */
    void tracePacketBegin(Transit &t);
    void tracePacketEnd(const Transit &t);

    /** Move @p t through its next hop (or deliver it). */
    void advance(const std::shared_ptr<Transit> &t);

    /** Sample (or force) CRC corruption for a delivery attempt. */
    bool deliveryCorrupted();

    /** Drop @p t at the destination NI and re-inject after the NACK
     *  delay. */
    void retransmit(const std::shared_ptr<Transit> &t);

    /** Transmit @p t over route link index t->hop once credit is held. */
    void transmit(const std::shared_ptr<Transit> &t);

    /**
     * Input-port buffer at the downstream router of @p link. Buffers
     * are per input port (per link), as in a real router — sharing one
     * pool per node would let forward and backward traffic deadlock
     * each other.
     */
    SlotResource &buffer(unsigned link, unsigned vc);

    Engine &_engine;
    std::unique_ptr<Topology> _topo;
    NocParams _params;
    std::vector<std::unique_ptr<BandwidthResource>> _links;
    /// _buffers[link * 2 + vc]
    std::vector<std::unique_ptr<SlotResource>> _buffers;

    FaultModel *_fault = nullptr;
    unsigned _forceCorrupt = 0;

    SampleStat _latency{"noc-packet-latency"};
    std::uint64_t _packetsDelivered = 0;
    std::uint64_t _bytesDelivered = 0;
    std::uint64_t _inFlight = 0;
    std::uint64_t _packetsInjected = 0;
    std::uint64_t _crcDrops = 0;
    std::uint64_t _retransmits = 0;
    std::uint64_t _retransmitsPending = 0;
};

/**
 * Checked downcast: the fNoC behind @p ic, or null when @p ic is null
 * or a different interconnect kind. Replaces cached NocNetwork* views
 * sitting next to the owning pointer.
 */
inline NocNetwork *
asNoc(Interconnect *ic)
{
    if (!ic || ic->kind() != InterconnectKind::Noc)
        return nullptr;
    return static_cast<NocNetwork *>(ic);
}

inline const NocNetwork *
asNoc(const Interconnect *ic)
{
    if (!ic || ic->kind() != InterconnectKind::Noc)
        return nullptr;
    return static_cast<const NocNetwork *>(ic);
}

} // namespace dssd

#endif // DSSD_NOC_NETWORK_HH
