/**
 * @file
 * cmd_mix: one DeviceA unified shell and one CmdDriver issuing a
 * seeded mix of small reads, register/queue writes and bulk reads,
 * back to back from a single caller. One op is one driver call.
 */

#include "host/cmd_driver.h"
#include "shell/unified_shell.h"
#include "telemetry/metrics_registry.h"
#include "workloads.h"

using namespace harmonia;

namespace perfbench {

namespace {

enum class CallClass { Read, Write, Bulk };

/** One planned command: where it goes, what it carries. */
struct PlannedCall {
    CallClass cls = CallClass::Read;
    std::uint8_t rbb = 0;
    std::uint16_t code = 0;
    std::vector<std::uint32_t> data;
};

/** Network RBB control-bank register the writes and reads share
 *  (LOCAL_MAC_LO: no datapath runs here, so it has no side effect). */
constexpr std::uint32_t kMacLoReg = 0x4;
/** Read-only monitor register MON_RX_PACKETS. */
constexpr std::uint32_t kMonRxReg = 0x1c;

class CmdMix : public Fixture {
  public:
    explicit CmdMix(std::uint64_t seed) : seed_(seed)
    {
        pinEngine(engine_);
        shell_ = Shell::makeUnified(
            engine_, DeviceDatabase::instance().byName("DeviceA"));
        shell_->registerTelemetry();
        driver_ = std::make_unique<CmdDriver>(engine_, *shell_);
        driver_->initializeAll();
        // The flattened registry bounds TelemetrySnapshot's operand.
        registrySize_ = static_cast<std::uint32_t>(
            MetricsRegistry::instance().snapshot().size());
        numQueues_ = shell_->host().numQueues();
    }

    PassResult run(std::size_t ops, Tracer &tracer) override;
    std::vector<Metric> microTimings() override;

  private:
    PlannedCall plan(std::uint64_t i) const;

    std::uint64_t seed_;
    Engine engine_;
    std::unique_ptr<Shell> shell_;
    std::unique_ptr<CmdDriver> driver_;
    std::uint32_t registrySize_ = 0;
    unsigned numQueues_ = 0;
    std::vector<CommandPacket> sample_;  ///< packets for codec timing
};

PlannedCall
CmdMix::plan(std::uint64_t i) const
{
    const std::uint64_t r = mix(seed_, i);
    const unsigned pick = static_cast<unsigned>(r % 20);
    const std::uint32_t arg = static_cast<std::uint32_t>(r >> 32);
    PlannedCall c;
    // Reads 12/20, writes 5/20, bulk reads 3/20.
    if (pick < 4) {
        c = {CallClass::Read, kRbbNetwork, kCmdModuleStatusRead,
             {(arg & 1) ? kMacLoReg : kMonRxReg}};
    } else if (pick < 8) {
        c = {CallClass::Read, kRbbHealth, kCmdSensorRead, {arg % 5}};
    } else if (pick < 12) {
        c = {CallClass::Read, kRbbSystem, kCmdTimeCount, {}};
    } else if (pick < 15) {
        c = {CallClass::Write, kRbbNetwork, kCmdModuleStatusWrite,
             {kMacLoReg, arg}};
    } else if (pick < 17) {
        const unsigned count = 8;
        const unsigned first =
            8 + arg % (numQueues_ > 16 + count ? numQueues_ - 16 - count
                                               : 1);
        c = {CallClass::Write, kRbbHost, kCmdQueueConfig,
             {first, count, (arg >> 16) & 1}};
    } else if (pick < 19) {
        c = {CallClass::Bulk, kRbbNetwork, kCmdStatsSnapshot,
             {arg % 4}};
    } else {
        c = {CallClass::Bulk, kRbbTelemetry, kCmdTelemetrySnapshot,
             {registrySize_ ? arg % registrySize_ : 0}};
    }
    return c;
}

PassResult
CmdMix::run(std::size_t ops, Tracer &tracer)
{
    static const char *kSpanFor[] = {"host.call_read", "host.call_write",
                                     "host.call_bulk"};
    PassResult res;
    res.opUs.reserve(ops);
    StatGroup &kstats = shell_->kernel().stats();
    const std::uint64_t executed0 = kstats.value("commands_executed");
    const std::uint64_t retries0 = driver_->stats().value("retries");
    const std::uint64_t timeouts0 = driver_->stats().value("timeouts");
    const std::uint64_t rt0 = driver_->roundTrip().count();
    const Tick sim0 = engine_.now();
    std::uint64_t latencyTicks = 0;
    std::uint64_t okCalls = 0;
    std::uint64_t lastMac = shell_->network().localMac() & 0xffffffffu;
    std::uint64_t lastTime = 0;
    std::uint64_t byClass[3] = {0, 0, 0};

    const std::int64_t phase0 = hostNs();
    for (std::size_t i = 0; i < ops; ++i) {
        const PlannedCall c = plan(i);
        tracer.setOp(static_cast<std::uint32_t>(i));
        CallOutcome out;
        const std::int64_t t0 = hostNs();
        {
            Scope op(tracer, "op");
            Scope call(tracer, kSpanFor[static_cast<int>(c.cls)]);
            out = driver_->callChecked(c.rbb, 0, c.code, c.data);
        }
        res.opUs.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        ++byClass[static_cast<int>(c.cls)];
        if (sample_.size() < 64) {
            CommandPacket p;
            p.rbbId = c.rbb;
            p.dstId = c.rbb;
            p.commandCode = c.code;
            p.data = c.data;
            sample_.push_back(p);
        }

        // Output checks: every call answers kCmdOk, reads of the
        // shared register see the last write, time never runs back.
        if (!out.ok() || out.response.status != kCmdOk) {
            res.fail(format("call %zu code 0x%04x: %s status 0x%04x", i,
                            c.code, toString(out.status),
                            out.response.status));
            continue;
        }
        ++okCalls;
        latencyTicks += driver_->lastLatency();
        if (c.code == kCmdModuleStatusWrite)
            lastMac = c.data[1];
        if (c.code == kCmdModuleStatusRead && c.data[0] == kMacLoReg &&
            (out.response.data.empty() ||
             out.response.data[0] != lastMac))
            res.fail(format("call %zu: LOCAL_MAC_LO read back stale", i));
        if (c.code == kCmdTimeCount && out.response.data.size() == 2) {
            const std::uint64_t t =
                (static_cast<std::uint64_t>(out.response.data[0]) << 32) |
                out.response.data[1];
            if (t < lastTime)
                res.fail(format("call %zu: time count ran back", i));
            lastTime = t;
        }
    }
    res.hostSeconds = static_cast<double>(hostNs() - phase0) / 1e9;

    res.attempted = ops;
    const double executed = static_cast<double>(
        kstats.value("commands_executed") - executed0);
    if (executed != static_cast<double>(ops))
        res.fail(format("kernel executed %.0f commands for %zu calls",
                        executed, ops));
    res.simNs = static_cast<double>(engine_.now() - sim0) / 1e3;
    res.simNsPerOp = okCalls ? static_cast<double>(latencyTicks) / 1e3 /
                                   static_cast<double>(okCalls)
                             : 0.0;
    const std::uint64_t rtCount = driver_->roundTrip().count() - rt0;
    res.count("host.call_sim_ns.mean",
              rtCount ? driver_->roundTrip().mean() / 1e3 : 0.0, "sim_ns");
    res.count("host.retries",
              static_cast<double>(driver_->stats().value("retries") -
                                  retries0),
              "count");
    res.count("host.timeouts",
              static_cast<double>(driver_->stats().value("timeouts") -
                                  timeouts0),
              "count");
    res.count("cmd.executed_per_call", executed / static_cast<double>(ops),
              "ratio");
    res.count("cmd.reads", static_cast<double>(byClass[0]), "count");
    res.count("cmd.writes", static_cast<double>(byClass[1]), "count");
    res.count("cmd.bulk_reads", static_cast<double>(byClass[2]), "count");
    res.fingerprint = engine_.now() ^ (lastMac << 20) ^ lastTime;
    return res;
}

std::vector<Metric>
CmdMix::microTimings()
{
    return {
        {"cmd.codec_ns", codecNs(sample_), "ns"},
        {"telemetry.counter_lookup_ns",
         counterLookupNs(shell_->kernel().stats(),
                         {"commands_executed", "commands_failed",
                          "nacks_sent"}),
         "ns"},
        {"fault.should_inject_ns",
         hookQueryNs({shell_->name(), "cmd01"}, engine_.now()), "ns"},
    };
}

} // namespace

std::unique_ptr<Fixture>
buildCmdMix(std::uint64_t seed)
{
    return std::make_unique<CmdMix>(seed);
}

} // namespace perfbench
