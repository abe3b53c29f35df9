/**
 * @file
 * Shared pieces of the perfbench binary: host-clock timing, the
 * benchmark's own span recorder (spans wrap calls into the library's
 * public API; nothing inside src/ is traced), and the result record
 * every workload fills in.
 */

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic time in nanoseconds. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Percentile by nearest rank of @p xs, which it reorders in place
 *  (no copy: op-time vectors run to millions of entries). */
double percentile(std::vector<double> &xs, double pct);

/**
 * Percentile @p pct of each of up to 50 consecutive blocks of at
 * least 100 samples of @p xs, averaged over the blocks. The host's
 * speed moves in phases; a whole-run percentile lands on whichever
 * phase holds the rank, while the block mean blends the phases in
 * proportion, as a rate over the run does. Reorders each block in
 * place.
 */
double blockPercentile(std::vector<double> &xs, double pct);

/** How many blocks blockPercentile() splits @p n samples into. */
std::size_t percentileBlocks(std::size_t n);

double median(std::vector<double> xs);

/** splitmix64 finalizer over seed + counter: the workload input mixer. */
std::uint64_t mix(std::uint64_t seed, std::uint64_t counter);

/**
 * In-memory span recorder. A span has a name, host start/end, the
 * index of the span open around it (-1 for a root) and the op id it
 * belongs to. Disabled, it records nothing and costs one branch per
 * span site.
 */
class Tracer {
  public:
    struct Span {
        const char *name = "";
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int32_t parent = -1;
        std::uint32_t op = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool on() const { return enabled_; }

    /** Called with the op id at the start of every op, before the op's
     *  timer starts; the caller owns any host time it spends. */
    void setOpHook(std::function<void(std::uint32_t)> hook)
    {
        hook_ = std::move(hook);
    }

    /** Start op @p op: spans opened until the next setOp belong to it. */
    void setOp(std::uint32_t op)
    {
        if (hook_)
            hook_(op);
        op_ = op;
    }

    std::int32_t open(const char *name);
    void close(std::int32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (us) of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Host self time (span minus its children) summed per layer,
     *  the layer being the span name up to its first '.'. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as tab-separated lines. */
    bool writeTsv(const std::string &path) const;

  private:
    bool enabled_;
    std::uint32_t op_ = 0;
    std::function<void(std::uint32_t)> hook_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span around one call; a no-op when the tracer is off. */
class Scope {
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.on() ? tracer.open(name) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            tracer_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    std::int32_t id_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one measured pass of a workload produced. simNs, simNsPerOp,
 * runSimNs, counts and fingerprint are simulated or counted and must
 * repeat bit for bit across runs of one seed; the rest is host time.
 */
struct PassResult {
    std::uint64_t attempted = 0;
    /** Ops refused or failed by design: fleet_churn's rejected
     *  admissions and calls inside the fault window. */
    std::uint64_t refused = 0;
    std::uint64_t violations = 0;  ///< output-check violations
    std::vector<std::string> problems;

    std::vector<double> opUs;  ///< host time of each op
    double hostSeconds = 0.0;  ///< whole measured phase
    double simNs = 0.0;        ///< simulated ns advanced in the phase
    double simNsPerOp = 0.0;
    double runHostSeconds = 0.0;  ///< inside the bench's runFor calls
    double runSimNs = 0.0;        ///< simulated ns those calls advanced

    std::vector<Metric> counts;  ///< deterministic per-layer values
    std::uint64_t fingerprint = 0;

    void fail(const std::string &what);
    void count(const std::string &name, double value,
               const std::string &unit);
};

/**
 * Host ns per iteration of @p body: the median over @p batches
 * batches of @p iters calls each.
 */
template <typename F>
double
nsPerCall(F &&body, std::size_t iters, std::size_t batches = 15)
{
    std::vector<double> per;
    per.reserve(batches);
    for (std::size_t b = 0; b < batches; ++b) {
        const std::int64_t t0 = hostNs();
        for (std::size_t i = 0; i < iters; ++i)
            body(i);
        per.push_back(static_cast<double>(hostNs() - t0) /
                      static_cast<double>(iters));
    }
    return median(per);
}

/** Host ns one span costs the tracer: a Scope opened and closed on
 *  an enabled Tracer. */
double spanNs();

/** Peak resident set of this process in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_H_
