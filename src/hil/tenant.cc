#include "hil/tenant.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "sim/log.hh"
#include "sim/registry.hh"

namespace dssd
{

namespace
{

/** Parse a non-negative number with an optional k/m/g suffix
 *  (powers of 1000, matching rate units). */
std::optional<double>
parseScaled(const std::string &tok)
{
    if (tok.empty())
        return std::nullopt;
    char *endp = nullptr;
    double v = std::strtod(tok.c_str(), &endp);
    if (endp == tok.c_str() || v < 0.0 || !std::isfinite(v))
        return std::nullopt;
    std::string suffix(endp);
    for (char &c : suffix)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (suffix == "")
        return v;
    if (suffix == "k")
        return v * 1e3;
    if (suffix == "m")
        return v * 1e6;
    if (suffix == "g")
        return v * 1e9;
    return std::nullopt;
}

std::optional<unsigned>
parseUnsigned(const std::string &tok)
{
    if (tok.empty() ||
        tok.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    char *endp = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &endp, 10);
    if (v > 0xffffffffull)
        return std::nullopt;
    return static_cast<unsigned>(v);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

} // namespace

std::optional<std::vector<TenantParams>>
parseTenantSpec(const std::string &spec)
{
    if (spec.empty())
        return std::nullopt;
    // Plain count: N tenants with default parameters.
    if (spec.find_first_not_of("0123456789") == std::string::npos) {
        auto n = parseUnsigned(spec);
        if (!n || *n == 0 || *n > 4096)
            return std::nullopt;
        return std::vector<TenantParams>(*n);
    }
    std::vector<TenantParams> out;
    for (const std::string &group : split(spec, ';')) {
        if (group.empty())
            return std::nullopt;
        TenantParams t;
        for (const std::string &field : split(group, ',')) {
            std::size_t colon = field.find(':');
            if (colon == std::string::npos)
                return std::nullopt;
            std::string key = field.substr(0, colon);
            std::string val = field.substr(colon + 1);
            if (key == "qd") {
                auto v = parseUnsigned(val);
                if (!v || *v == 0)
                    return std::nullopt;
                t.queueDepth = *v;
            } else if (key == "w") {
                auto v = parseUnsigned(val);
                if (!v || *v == 0)
                    return std::nullopt;
                t.weight = *v;
            } else if (key == "prio") {
                auto v = parseUnsigned(val);
                if (!v)
                    return std::nullopt;
                t.priority = *v;
            } else if (key == "rate") {
                auto v = parseScaled(val);
                if (!v)
                    return std::nullopt;
                t.rateBytesPerSec = *v;
            } else if (key == "burst") {
                auto v = parseScaled(val);
                if (!v)
                    return std::nullopt;
                t.burstBytes = static_cast<std::uint64_t>(*v);
            } else if (key == "slo") {
                auto v = parseScaled(val);
                if (!v)
                    return std::nullopt;
                t.sloTargetUs = *v;
            } else if (key == "name") {
                if (val.empty())
                    return std::nullopt;
                t.name = val;
            } else {
                return std::nullopt;
            }
        }
        out.push_back(t);
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

//
// TokenBucket
//

TokenBucket::TokenBucket(double rate_bytes_per_sec,
                         std::uint64_t burst_bytes)
    : _rate(rate_bytes_per_sec)
{
    if (_rate < 0.0 || !std::isfinite(_rate))
        fatal("token bucket rate must be finite and >= 0");
    // Default burst: 10 ms of rate, so short bursts pass while the
    // average holds at the configured rate.
    _burst = burst_bytes != 0 ? static_cast<double>(burst_bytes)
                              : _rate * 0.010;
    if (_rate > 0.0 && _burst <= 0.0)
        fatal("token bucket burst must be > 0 when rate limited");
    _tokens = _burst; // start full
}

void
TokenBucket::refill(Tick now)
{
    if (_rate <= 0.0)
        return;
    if (now <= _lastRefill)
        return;
    double elapsed_s =
        static_cast<double>(now - _lastRefill) / static_cast<double>(tickSec);
    _tokens = std::min(_burst, _tokens + elapsed_s * _rate);
    _lastRefill = now;
}

bool
TokenBucket::admits(Tick now, std::uint64_t bytes)
{
    if (_rate <= 0.0)
        return true;
    refill(now);
    return _tokens >= static_cast<double>(bytes);
}

void
TokenBucket::consume(std::uint64_t bytes)
{
    if (_rate <= 0.0)
        return;
    _tokens -= static_cast<double>(bytes);
}

Tick
TokenBucket::nextAdmitTime(Tick now, std::uint64_t bytes)
{
    if (_rate <= 0.0)
        return now;
    refill(now);
    double deficit = static_cast<double>(bytes) - _tokens;
    if (deficit <= 0.0)
        return now;
    double wait_ns = deficit / _rate * static_cast<double>(tickSec);
    Tick wait = static_cast<Tick>(std::ceil(wait_ns));
    return now + std::max<Tick>(wait, 1);
}

//
// TenantStats
//

TenantStats::TenantStats(const TenantParams &params, Tick window)
    : _sloTargetNs(params.sloTargetUs * 1e3),
      _ioBytes(window, "io-bytes")
{
}

void
TenantStats::recordCompletion(const IoRequest &req, Tick now, Tick lat)
{
    double lat_d = static_cast<double>(lat);
    if (req.isRead())
        _readLat.sample(lat_d);
    else
        _writeLat.sample(lat_d);
    _ioBytes.add(now, static_cast<double>(req.bytes));
    ++_completed;
    if (_sloTargetNs > 0.0 && lat_d > _sloTargetNs)
        ++_sloViolations;
}

SampleStat
TenantStats::latency() const
{
    SampleStat all("latency");
    all.merge(_readLat);
    all.merge(_writeLat);
    return all;
}

double
TenantStats::sloCompliance() const
{
    if (_sloTargetNs <= 0.0 || _completed == 0)
        return 1.0;
    return 1.0 - static_cast<double>(_sloViolations) /
                     static_cast<double>(_completed);
}

void
TenantStats::registerStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.addScalar(prefix + ".completed", [this] {
        return static_cast<double>(_completed);
    });
    reg.addScalar(prefix + ".dropped", [this] {
        return static_cast<double>(_dropped);
    });
    reg.addSample(prefix + ".latency.read", &_readLat);
    reg.addSample(prefix + ".latency.write", &_writeLat);
    reg.addSample(prefix + ".latency.all", [this] { return latency(); });
    reg.addRate(prefix + ".io_bytes", &_ioBytes);
    reg.addScalar(prefix + ".slo.target_us", [this] {
        return _sloTargetNs / 1e3;
    });
    reg.addScalar(prefix + ".slo.violations", [this] {
        return static_cast<double>(_sloViolations);
    });
    reg.addScalar(prefix + ".slo.compliance", [this] {
        return sloCompliance();
    });
}

} // namespace dssd
