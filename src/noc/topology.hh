/**
 * @file
 * fNoC topologies: 1-D mesh (the paper's default, k=8 n=1), ring, and
 * crossbar (Sec 6.3, Fig 13).
 *
 * A topology enumerates directed links and computes deterministic
 * minimal routes. Bisection link counts let benches hold bisection
 * bandwidth constant across topologies, exactly as Fig 13 does.
 */

#ifndef DSSD_NOC_TOPOLOGY_HH
#define DSSD_NOC_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dssd
{

/** A directed link between two routers. */
struct NocLink
{
    unsigned id;
    unsigned from;
    unsigned to;
};

/** Abstract base for fNoC topologies. */
class Topology
{
  public:
    virtual ~Topology() = default;

    virtual const std::string &name() const = 0;
    virtual unsigned numNodes() const = 0;
    virtual unsigned numLinks() const = 0;
    virtual const NocLink &link(unsigned id) const = 0;

    /**
     * Deterministic minimal route from @p src to @p dst as an ordered
     * list of link ids. Empty when src == dst.
     */
    virtual std::vector<unsigned> route(unsigned src, unsigned dst)
        const = 0;

    /**
     * Number of unidirectional links crossing the worst-case bisection.
     * Bisection bandwidth = bisectionLinks() * per-link bandwidth.
     */
    virtual unsigned bisectionLinks() const = 0;

    /**
     * Whether a route's links are occupied simultaneously (crossbar
     * input+output port model) instead of hop-by-hop.
     */
    virtual bool simultaneousLinks() const { return false; }

    /**
     * Whether @p link_id crosses the dateline (ring wrap-around).
     * Packets switch to the escape virtual channel there, the classic
     * deadlock-avoidance rule for rings.
     */
    virtual bool datelineLink(unsigned link_id) const
    {
        (void)link_id;
        return false;
    }
};

/**
 * 1-D mesh (a line of k routers). Dimension-order routing degenerates
 * to "walk toward the destination". Matches the paper's fNoC default
 * (k=8, n=1) and the linear floorplan of flash controllers.
 */
class Mesh1D : public Topology
{
  public:
    explicit Mesh1D(unsigned k);

    const std::string &name() const override { return _name; }
    unsigned numNodes() const override { return _k; }
    unsigned numLinks() const override
    {
        return static_cast<unsigned>(_links.size());
    }
    const NocLink &link(unsigned id) const override { return _links[id]; }
    std::vector<unsigned> route(unsigned src, unsigned dst) const override;
    unsigned bisectionLinks() const override { return 2; }

  private:
    /** Link id for the hop from node n toward n+1 (dir=0) or n-1 (1). */
    unsigned hopLink(unsigned node, bool backward) const;

    unsigned _k;
    std::string _name;
    std::vector<NocLink> _links;
};

/** Bidirectional ring; packets take the shorter direction. */
class Ring : public Topology
{
  public:
    explicit Ring(unsigned k);

    const std::string &name() const override { return _name; }
    unsigned numNodes() const override { return _k; }
    unsigned numLinks() const override
    {
        return static_cast<unsigned>(_links.size());
    }
    const NocLink &link(unsigned id) const override { return _links[id]; }
    std::vector<unsigned> route(unsigned src, unsigned dst) const override;
    unsigned bisectionLinks() const override { return 4; }
    bool datelineLink(unsigned link_id) const override
    {
        return link_id == _k - 1 || link_id == _k;
    }

  private:
    unsigned _k;
    std::string _name;
    std::vector<NocLink> _links;
};

/**
 * Non-blocking crossbar: every node has one input port and one output
 * port into the switch; a transfer occupies the source's output port
 * and the destination's input port simultaneously.
 */
class Crossbar : public Topology
{
  public:
    explicit Crossbar(unsigned k);

    const std::string &name() const override { return _name; }
    unsigned numNodes() const override { return _k; }
    unsigned numLinks() const override
    {
        return static_cast<unsigned>(_links.size());
    }
    const NocLink &link(unsigned id) const override { return _links[id]; }
    std::vector<unsigned> route(unsigned src, unsigned dst) const override;
    unsigned bisectionLinks() const override { return _k; }
    bool simultaneousLinks() const override { return true; }

  private:
    unsigned _k;
    std::string _name;
    std::vector<NocLink> _links;
};

/** Factory by name: "mesh", "ring", "crossbar". */
std::unique_ptr<Topology> makeTopology(const std::string &kind, unsigned k);

} // namespace dssd

#endif // DSSD_NOC_TOPOLOGY_HH
