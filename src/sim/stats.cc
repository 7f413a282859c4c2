#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hh"

namespace dssd
{

//
// SampleStat
//

void
SampleStat::sample(double v)
{
    // Reserve ahead in large steps so steady sampling amortizes to a
    // handful of reallocations over a whole run.
    if (_samples.size() == _samples.capacity())
        _samples.reserve(
            _samples.empty() ? 1024 : _samples.capacity() * 2);
    if (_samples.empty()) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    _samples.push_back(v);
    _sum += v;
    _scratchValid = false;
}

double
SampleStat::mean() const
{
    if (_samples.empty())
        return 0.0;
    return _sum / static_cast<double>(_samples.size());
}

double
SampleStat::min() const
{
    if (_samples.empty())
        return 0.0;
    return _min;
}

double
SampleStat::max() const
{
    if (_samples.empty())
        return 0.0;
    return _max;
}

double
SampleStat::percentile(double p) const
{
    if (_samples.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile %f out of range", p);
    if (!_scratchValid) {
        _scratch = _samples;
        _scratchValid = true;
    }
    // Nearest-rank: smallest value with at least ceil(p/100*N) samples
    // at or below it. Selection, not a full sort: each query is O(n),
    // and the partially ordered scratch persists across queries.
    std::size_t n = _scratch.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    auto nth = _scratch.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(_scratch.begin(), nth, _scratch.end());
    return *nth;
}

//
// RateSeries
//

RateSeries::RateSeries(Tick window, std::string name)
    : _window(window), _name(std::move(name))
{
    if (window == 0)
        fatal("RateSeries window must be > 0");
}

void
RateSeries::add(Tick when, double weight)
{
    std::size_t w = static_cast<std::size_t>(when / _window);
    if (_sums.size() <= w)
        _sums.resize(w + 1, 0.0);
    _sums[w] += weight;
    _total += weight;
}

std::vector<double>
RateSeries::ratePerSec() const
{
    std::vector<double> out;
    out.reserve(_sums.size());
    double window_sec = ticksToSec(_window);
    for (double s : _sums)
        out.push_back(s / window_sec);
    return out;
}

double
RateSeries::averageRate(Tick from, Tick to) const
{
    if (to <= from)
        return 0.0;
    std::size_t w0 = static_cast<std::size_t>(from / _window);
    std::size_t w1 = static_cast<std::size_t>((to - 1) / _window);
    double sum = 0.0;
    for (std::size_t w = w0; w <= w1 && w < _sums.size(); ++w)
        sum += _sums[w];
    return sum / ticksToSec(to - from);
}

//
// Formatting helpers
//

std::string
formatBandwidth(double bytes_per_sec)
{
    if (bytes_per_sec >= 1e9)
        return strformat("%.2f GB/s", bytes_per_sec / 1e9);
    if (bytes_per_sec >= 1e6)
        return strformat("%.2f MB/s", bytes_per_sec / 1e6);
    if (bytes_per_sec >= 1e3)
        return strformat("%.2f KB/s", bytes_per_sec / 1e3);
    return strformat("%.2f B/s", bytes_per_sec);
}

std::string
formatLatency(double ns)
{
    if (ns >= 1e6)
        return strformat("%.2f ms", ns / 1e6);
    if (ns >= 1e3)
        return strformat("%.2f us", ns / 1e3);
    return strformat("%.0f ns", ns);
}

} // namespace dssd
