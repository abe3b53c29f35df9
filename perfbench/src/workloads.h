/**
 * @file
 * The three benchmark workloads. Each builds a fresh fixture (its own
 * Engine, pinned serial with idle fast-forward) from the seed and then
 * runs a fixed number of closed-loop ops against it from one caller.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>

#include "bench_util.h"
#include "cmd/command.h"
#include "common/stats.h"
#include "sim/engine.h"

namespace perfbench {

class Fixture {
  public:
    virtual ~Fixture() = default;

    /** Run @p ops ops and check their outputs. Called once. */
    virtual PassResult run(std::size_t ops, Tracer &tracer) = 0;

    /** Per-layer host microtimings, after run(): cmd.codec_ns,
     *  cmd.checkpoint_codec_us, telemetry.counter_lookup_ns and
     *  fault.should_inject_ns where the workload has them. */
    virtual std::vector<Metric> microTimings() = 0;
};

struct WorkloadSpec {
    const char *name;
    /** Nominal ops per host second: --seconds sizes a run to
     *  seconds x this many ops, so the op count (and every simulated
     *  value) depends only on the seed and --seconds. */
    double nominalOpsPerSecond;
    std::unique_ptr<Fixture> (*build)(std::uint64_t seed);
};

std::unique_ptr<Fixture> buildFleetChurn(std::uint64_t seed);
std::unique_ptr<Fixture> buildCmdMix(std::uint64_t seed);
std::unique_ptr<Fixture> buildL4lbImix(std::uint64_t seed);

/** The configuration every workload runs the engine in. */
void pinEngine(harmonia::Engine &engine);

/** Host ns of encode() + decodeCommand() per packet of @p pkts. */
double codecNs(const std::vector<harmonia::CommandPacket> &pkts);

/** Host ns of StatGroup::counter(name) over @p hot_names, on a group
 *  holding the same counters as @p like. */
double counterLookupNs(const harmonia::StatGroup &like,
                       const std::vector<std::string> &hot_names);

/** Host ns of one fault hook-site query (injectFault) against
 *  whichever FaultPlan is armed, over @p targets at time @p now. The
 *  queries never match an open rule, so nothing is injected. */
double hookQueryNs(const std::vector<std::string> &targets,
                   harmonia::Tick now);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
