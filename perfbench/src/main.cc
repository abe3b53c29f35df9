/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload <fleet_churn|cmd_mix|l4lb_imix> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans <path>]
 *
 * The run size is seconds x the workload's nominal op rate, so every
 * simulated value depends only on the seed and --seconds. --trace 0
 * prints the end-to-end metrics of an untraced pass; --trace 1 traces
 * every op of the same pass and prints the per-layer metrics. The
 * simulated values and counts do not depend on --trace. The last
 * stdout line is the result object.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workloads.h"

using namespace harmonia;
using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

const WorkloadSpec kWorkloads[] = {
    {"fleet_churn", 32.0, buildFleetChurn},
    {"cmd_mix", 42000.0, buildCmdMix},
    {"l4lb_imix", 2200.0, buildL4lbImix},
};

/** Environment switches that change what the library executes. */
const char *const kPinnedEnv[] = {
    "HARMONIA_SIM_THREADS", "HARMONIA_SIM_AUDIT", "HARMONIA_TRACE_CAP",
    "HARMONIA_BENCH_SCALE", "HARMONIA_CHAOS_SEED",
};

/** Warm fixture builds spread evenly over the pass; setup_s is their
 *  median. The host's speed moves in phases of tens of seconds, so
 *  builds timed back to back sample one phase while the pass averages
 *  over several; spread out, they see the same mix the pass does. */
constexpr std::size_t kWarmBuilds = 31;

/** Every per-layer metric, in output order. Absent from a workload
 *  (the layer is not exercised there) means 0. */
const char *const kLayerMetrics[][2] = {
    {"sim.run_host_us_per_sim_us", "ratio"},
    {"host.call_read_host_us.p50", "us"},
    {"host.call_write_host_us.p50", "us"},
    {"host.call_bulk_host_us.p50", "us"},
    {"host.call_sim_ns.mean", "sim_ns"},
    {"host.retries", "count"},
    {"host.timeouts", "count"},
    {"cmd.executed_per_call", "ratio"},
    {"cmd.reads", "count"},
    {"cmd.writes", "count"},
    {"cmd.bulk_reads", "count"},
    {"cmd.codec_ns", "ns"},
    {"cmd.checkpoint_codec_us", "us"},
    {"shell.net.injected", "count"},
    {"shell.net.rx_packets", "count"},
    {"shell.net.rx_drops", "count"},
    {"shell.net.rx_shed", "count"},
    {"roles.l4lb.forwarded", "count"},
    {"roles.l4lb.table_hit_ratio", "ratio"},
    {"roles.l4lb.evictions", "count"},
    {"roles.l4lb.flows_opened", "count"},
    {"roles.l4lb.pin_probes", "count"},
    {"telemetry.counter_lookup_ns", "ns"},
    {"fault.should_inject_ns", "ns"},
    {"fault.injected_total", "count"},
    {"fleet.admit_host_us.p50", "us"},
    {"fleet.migrate_host_us.p50", "us"},
    {"fleet.evict_host_us.p50", "us"},
    {"fleet.call_host_us.p50", "us"},
    {"fleet.poll_host_us.p50", "us"},
    {"fleet.checkpoint_host_us.p50", "us"},
    {"fleet.placement_sim_cycles.mean", "sim_cycles"},
    {"fleet.migration_sim_cycles.mean", "sim_cycles"},
    {"fleet.placements", "count"},
    {"fleet.migrations", "count"},
    {"fleet.migrate_refused", "count"},
    {"fleet.rejects", "count"},
    {"fleet.checkpoints", "count"},
    {"fleet.journal_high_water", "count"},
    {"fleet.verified_writes", "count"},
    {"ha.deaths_declared", "count"},
    {"ha.revivals", "count"},
    {"obs.hub_poll_host_us.p50", "us"},
    {"self.bench_us_per_op", "us"},
    {"self.fleet_us_per_op", "us"},
    {"self.obs_us_per_op", "us"},
    {"self.sim_us_per_op", "us"},
    {"self.host_us_per_op", "us"},
    {"self.shell_us_per_op", "us"},
    {"failed_op_frac", "ratio"},
    {"setup.first_build_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

/** Per-layer host p50s read off the benchmark's own spans. */
const char *const kSpanP50[][2] = {
    {"host.call_read_host_us.p50", "host.call_read"},
    {"host.call_write_host_us.p50", "host.call_write"},
    {"host.call_bulk_host_us.p50", "host.call_bulk"},
    {"fleet.admit_host_us.p50", "fleet.admit"},
    {"fleet.migrate_host_us.p50", "fleet.migrate"},
    {"fleet.evict_host_us.p50", "fleet.evict"},
    {"fleet.call_host_us.p50", "fleet.call"},
    {"fleet.poll_host_us.p50", "fleet.poll"},
    {"fleet.checkpoint_host_us.p50", "fleet.checkpoint"},
    {"obs.hub_poll_host_us.p50", "obs.hub_poll"},
};

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            haveSeed = *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (*end != '\0' || !(a.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (key == "--trace") {
            a.trace = std::atoi(val);
            if (a.trace != 0 && a.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (key == "--spans") {
            a.spans = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!haveSeed)
        usage("--seed <n> is required");
    return a;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    std::printf("{");
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}");
}

/** Simulated values and counts that must repeat across passes. */
std::string
digest(const PassResult &p)
{
    std::string out = format("sim_ns_per_op=%.17g fingerprint=%016" PRIx64,
                             p.simNsPerOp, p.fingerprint);
    for (const Metric &m : p.counts)
        out += format(" %s=%.17g", m.name.c_str(), m.value);
    return out;
}

double
failedFrac(const PassResult &p)
{
    const std::uint64_t bad =
        std::min(p.attempted, p.refused + p.violations);
    return p.attempted ? static_cast<double>(bad) /
                             static_cast<double>(p.attempted)
                       : 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (args.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // Pin what is measured: an optimized, unsanitized build and no
    // environment switch that changes what the library executes.
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing an unoptimized build\n");
    return 2;
#endif
#ifdef PERFBENCH_SANITIZED
    std::fprintf(stderr, "perfbench: refusing a sanitizer build\n");
    return 2;
#endif
    for (const char *var : kPinnedEnv)
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: %s is set; unset it (run.py clears "
                         "it for the run)\n",
                         var);
            return 2;
        }

    const std::size_t ops = static_cast<std::size_t>(
        args.seconds * spec->nominalOpsPerSecond + 0.5);
    if (ops == 0)
        usage("the run has no ops");
    std::printf("# perfbench workload=%s seed=%" PRIu64
                " ops=%zu trace=%d build=%s optimize=1 sanitizer=none\n",
                spec->name, args.seed, ops, args.trace,
                PERFBENCH_BUILD_TYPE);
    std::printf("# engine threads=1 parallel=0 idle_fast_forward=1 "
                "ownership_audit=0 caller=closed-loop x1\n");

    // Set-up: the process's first fixture build is the cold one;
    // setup_s is the median of warm builds, each from a fresh Engine,
    // made between ops of the pass (outside their timers). The host
    // time they take, destruction included, is taken out of the pass.
    const auto timedBuild = [&] {
        const std::int64_t t0 = hostNs();
        std::unique_ptr<Fixture> f = spec->build(args.seed);
        return static_cast<double>(hostNs() - t0) / 1e9;
    };
    const double firstBuild = timedBuild();
    std::vector<double> warm;
    double buildSeconds = 0.0;
    Tracer tracer(args.trace == 1);
    tracer.setOpHook([&](std::uint32_t op) {
        const std::int64_t t0 = hostNs();
        while (warm.size() < kWarmBuilds &&
               (2 * warm.size() + 1) * ops / (2 * kWarmBuilds) <= op)
            warm.push_back(timedBuild());
        buildSeconds += static_cast<double>(hostNs() - t0) / 1e9;
    });

    std::unique_ptr<Fixture> fixture = spec->build(args.seed);
    PassResult pass = fixture->run(ops, tracer);
    tracer.setOpHook(nullptr);
    while (warm.size() < kWarmBuilds)
        warm.push_back(timedBuild());
    const std::vector<Metric> micro =
        args.trace ? fixture->microTimings() : std::vector<Metric>{};
    fixture.reset();
    const double hostSeconds = pass.hostSeconds - buildSeconds;

    std::vector<Metric> out;
    if (args.trace == 0) {
        out = {
            {"ops_per_s", static_cast<double>(ops) / hostSeconds, "1/s"},
            {"op_host_us.p50", blockPercentile(pass.opUs, 50), "us"},
            {"op_host_us.p90", blockPercentile(pass.opUs, 90), "us"},
            {"sim_ns_per_host_s", pass.simNs / hostSeconds, "sim_ns/s"},
            {"sim_ns_per_op", pass.simNsPerOp, "sim_ns"},
            {"setup_s", median(warm), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"ok_op_frac", 1.0 - failedFrac(pass), "ratio"},
        };
        const std::size_t blocks = percentileBlocks(pass.opUs.size());
        const std::size_t perBlock = pass.opUs.size() / blocks;
        std::printf("# op_host_us samples=%zu in %zu blocks of >=%zu "
                    "(>=%zu beyond p90 per block) refused_or_failed=%" PRIu64
                    " failed_op_frac=%.6f\n",
                    pass.opUs.size(), blocks, perBlock,
                    perBlock - (perBlock * 9 + 9) / 10, pass.refused,
                    failedFrac(pass));
    } else {
        // Overhead: the host time the tracer itself spent, as a share
        // of the traced pass, i.e. the pass's ops_per_s loss against
        // the same pass untraced (1 - untraced/traced time).
        const double tracingSeconds =
            static_cast<double>(tracer.spans().size()) * spanNs() / 1e9;
        const double overhead = tracingSeconds / hostSeconds;

        std::vector<Metric> got = pass.counts;
        got.insert(got.end(), micro.begin(), micro.end());
        got.push_back({"sim.run_host_us_per_sim_us",
                       pass.runSimNs > 0 ? pass.runHostSeconds * 1e6 /
                                               (pass.runSimNs / 1e3)
                                         : 0.0,
                       "ratio"});
        for (const auto &sp : kSpanP50) {
            std::vector<double> d = tracer.durationsUs(sp[1]);
            if (!d.empty())
                got.push_back({sp[0], percentile(d, 50), "us"});
        }
        for (const auto &[layer, secs] : tracer.selfSecondsByLayer()) {
            const std::string l = layer == "op" ? "bench" : layer;
            got.push_back({"self." + l + "_us_per_op",
                           secs * 1e6 / static_cast<double>(ops), "us"});
        }
        got.push_back({"failed_op_frac", failedFrac(pass), "ratio"});
        got.push_back({"setup.first_build_s", firstBuild, "s"});
        got.push_back({"trace.overhead_frac", overhead, "ratio"});

        // Emit in canonical order; an unlisted name is a bug here.
        for (const Metric &g : got) {
            bool known = false;
            for (const auto &lm : kLayerMetrics)
                known = known || g.name == lm[0];
            if (!known) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                             g.name.c_str());
                return 3;
            }
        }
        for (const auto &lm : kLayerMetrics) {
            Metric m{lm[0], 0.0, lm[1]};
            for (const Metric &g : got)
                if (g.name == m.name)
                    m.value = g.value;
            out.push_back(m);
        }
        if (!args.spans.empty() && !tracer.writeTsv(args.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spans.c_str());
            return 3;
        }
        std::printf("# traced ops=%zu, spans=%zu written to %s\n",
                    ops, tracer.spans().size(),
                    args.spans.empty() ? "(not written)"
                                       : args.spans.c_str());
    }

    std::printf("# digest %s\n", digest(pass).c_str());
    for (const std::string &p : pass.problems)
        std::printf("# CHECK FAILED: %s\n", p.c_str());
    const std::uint64_t failed =
        std::min<std::uint64_t>(ops, pass.violations);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %" PRIu64
                ", \"metrics\": ",
                pass.violations == 0 ? "true" : "false", ops, failed);
    printMetrics(out);
    std::printf("}\n");
    return 0;
}
