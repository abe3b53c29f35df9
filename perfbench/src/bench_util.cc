#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

namespace {

/** Nearest rank: the smallest sample with at least pct% of the
 *  samples at or below it. Reorders [first, last). */
double
rankOf(std::vector<double>::iterator first,
       std::vector<double>::iterator last, double pct)
{
    const auto n = static_cast<std::size_t>(last - first);
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(first, first + (rank - 1), last);
    return first[rank - 1];
}

} // namespace

double
percentile(std::vector<double> &xs, double pct)
{
    return xs.empty() ? 0.0 : rankOf(xs.begin(), xs.end(), pct);
}

std::size_t
percentileBlocks(std::size_t n)
{
    return std::clamp<std::size_t>(n / 100, 1, 50);
}

double
blockPercentile(std::vector<double> &xs, double pct)
{
    if (xs.empty())
        return 0.0;
    const std::size_t blocks = percentileBlocks(xs.size());
    double sum = 0.0;
    for (std::size_t b = 0; b < blocks; ++b)
        sum += rankOf(xs.begin() + b * xs.size() / blocks,
                      xs.begin() + (b + 1) * xs.size() / blocks, pct);
    return sum / static_cast<double>(blocks);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t counter)
{
    std::uint64_t z = seed + counter * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::int32_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    const auto id = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(id);
    s.start = hostNs();
    spans_.push_back(s);
    return id;
}

void
Tracer::close(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].end = hostNs();
    stack_.pop_back();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        const std::string layer = name.substr(0, name.find('.'));
        out[layer] += static_cast<double>(spans_[i].end -
                                          spans_[i].start - childNs[i]) /
                      1e9;
    }
    return out;
}

bool
Tracer::writeTsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\n");
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i, s.parent,
                     s.op, s.name,
                     static_cast<long long>(s.start - base),
                     static_cast<long long>(s.end - base));
    }
    return std::fclose(f) == 0;
}

void
PassResult::fail(const std::string &what)
{
    ++violations;
    if (problems.size() < 20)
        problems.push_back(what);
}

void
PassResult::count(const std::string &name, double value,
                  const std::string &unit)
{
    counts.push_back({name, value, unit});
}

double
spanNs()
{
    Tracer t(true);
    t.setOp(0);
    return nsPerCall([&t](std::size_t) { Scope s(t, "span"); }, 8192);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace perfbench
