#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/log.hh"

namespace dssd
{

//
// SampleStat
//

namespace
{

/** Samples that stay pending before a fold, however small the store. */
constexpr std::size_t kMinPending = 256;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/** Map @p v onto an unsigned key with the same order: flip every bit
 *  of a negative, only the sign bit of anything else. */
std::uint64_t
orderedKey(double v)
{
    auto bits = std::bit_cast<std::uint64_t>(v);
    return (bits & kSignBit) ? ~bits : bits | kSignBit;
}

double
keyValue(std::uint64_t key)
{
    return std::bit_cast<double>((key & kSignBit) ? key & ~kSignBit
                                                  : ~key);
}

/**
 * Sort @p n keys by LSD radix, one byte per pass, moving them between
 * @p a and @p b. A pass is skipped where every key has the same byte,
 * as the low mantissa bytes of integer-valued samples do. Returns
 * whichever array holds the sorted keys.
 */
std::uint64_t *
radixSort(std::uint64_t *a, std::uint64_t *b, std::size_t n)
{
    std::size_t hist[8][256] = {};
    for (std::size_t i = 0; i < n; ++i)
        for (unsigned d = 0; d < 8; ++d)
            ++hist[d][(a[i] >> (8 * d)) & 0xff];
    for (unsigned d = 0; d < 8; ++d) {
        std::size_t *next = hist[d];
        if (next[(a[0] >> (8 * d)) & 0xff] == n)
            continue;
        std::size_t at = 0;
        for (unsigned byte = 0; byte < 256; ++byte)
            at += std::exchange(next[byte], at);
        for (std::size_t i = 0; i < n; ++i)
            b[next[(a[i] >> (8 * d)) & 0xff]++] = a[i];
        std::swap(a, b);
    }
    return a;
}

/**
 * Merge @p m distinct ascending keys @p add, taken @p addCounts[j]
 * times each, into the store (@p keys, @p counts) in place: count the
 * keys the store lacks, grow it once, then fill it from the back, so
 * every entry moves before its slot is overwritten.
 */
template <typename Count>
void
mergeRuns(std::vector<std::uint64_t> &keys,
          std::vector<std::uint32_t> &counts, const std::uint64_t *add,
          const Count *addCounts, std::size_t m, const std::string &name)
{
    std::size_t n = keys.size(), i = 0, j = 0, fresh = 0;
    while (i < n && j < m) {
        std::uint64_t have = keys[i], want = add[j];
        i += have <= want;
        j += want <= have;
        fresh += want < have;
    }
    fresh += m - j;
    keys.resize(n + fresh);
    counts.resize(n + fresh);
    std::size_t out = n + fresh;
    i = n;
    for (j = m; j-- > 0;) {
        std::uint64_t key = add[j];
        while (i > 0 && keys[i - 1] > key) {
            --i;
            --out;
            keys[out] = keys[i];
            counts[out] = counts[i];
        }
        std::uint64_t c = addCounts[j];
        if (i > 0 && keys[i - 1] == key)
            c += counts[--i];
        if (c > std::numeric_limits<std::uint32_t>::max())
            fatal("SampleStat '%s': more than %u samples of %g",
                  name.c_str(), std::numeric_limits<std::uint32_t>::max(),
                  keyValue(key));
        --out;
        keys[out] = key;
        counts[out] = static_cast<std::uint32_t>(c);
    }
}

} // namespace

void
SampleStat::sample(double v)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    ++_count;
    _sum += v;
    _pending.push_back(orderedKey(v));
    if (_pending.size() >= std::max(kMinPending, _keys.size() / 4))
        fold();
}

void
SampleStat::fold() const
{
    std::size_t n = _pending.size();
    if (n == 0)
        return;
    if (_radix.size() < n) {
        _radix.reserve(n); // exactly the largest fold so far
        _radix.resize(n);
    }
    std::uint64_t *sorted = radixSort(_pending.data(), _radix.data(), n);
    std::uint64_t *runs =
        sorted == _pending.data() ? _radix.data() : _pending.data();
    // Coalesce equal keys in place: sorted[0, m) distinct, runs[0, m)
    // how many samples took each.
    std::size_t m = 0;
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && sorted[j] == sorted[i])
            ++j;
        sorted[m] = sorted[i];
        runs[m] = j - i;
        ++m;
        i = j;
    }
    mergeRuns(_keys, _counts, sorted, runs, m, _name);
    _pending.clear();
}

void
SampleStat::merge(const SampleStat &other)
{
    if (other._count == 0)
        return;
    other.fold();
    mergeRuns(_keys, _counts, other._keys.data(), other._counts.data(),
              other._keys.size(), _name);
    if (_count == 0 || other._min < _min)
        _min = other._min;
    if (_count == 0 || other._max > _max)
        _max = other._max;
    _count += other._count;
    _sum += other._sum;
}

double
SampleStat::mean() const
{
    if (_count == 0)
        return 0.0;
    return _sum / static_cast<double>(_count);
}

double
SampleStat::min() const
{
    if (_count == 0)
        return 0.0;
    return _min;
}

double
SampleStat::max() const
{
    if (_count == 0)
        return 0.0;
    return _max;
}

double
SampleStat::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile %f out of range", p);
    fold();
    // Nearest-rank: smallest value with at least ceil(p/100*N) samples
    // at or below it, found by walking the counts.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(_count)));
    rank = std::clamp<std::uint64_t>(rank, 1, _count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _keys.size(); ++i) {
        seen += _counts[i];
        if (seen >= rank)
            return keyValue(_keys[i]);
    }
    panic("SampleStat '%s' holds %llu of its %llu samples", _name.c_str(),
          static_cast<unsigned long long>(seen),
          static_cast<unsigned long long>(_count));
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
