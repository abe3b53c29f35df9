/**
 * @file
 * l4lb_imix: a DeviceB tailored shell running Layer4Lb. Seeded flows
 * carry IMIX data packets (64/576/1500 B at 7:4:1) and are injected
 * at the uplink MAC at line-rate spacing in simulated time; one op is
 * one 64-packet burst, injected and then drained with Engine::runFor.
 * A few long-lived "hot" flows hit the connection table while many
 * short "mice" flows outnumber its capacity, so inserts and evictions
 * run next to hits.
 *
 * Every 512th burst is a pin probe: one backend that pinned flows use
 * is marked down, the burst carries only those flows' data plus one
 * new flow, and the pinned flows must keep their server while the new
 * flow avoids the downed one. A probe needs a pinned hot flow; a run
 * of 512 bursts or more in which no probe ran fails its checks.
 */

#include <algorithm>

#include "common/logging.h"
#include "host/cmd_driver.h"
#include "roles/l4lb.h"
#include "shell/network_rbb.h"
#include "workload/flow_gen.h"
#include "workloads.h"

using namespace harmonia;

namespace perfbench {

namespace {

constexpr std::size_t kBurst = 64;
constexpr std::size_t kProbeEvery = 512;
constexpr Tick kDrainMargin = 2'000'000;  ///< 2 us past the last arrival
constexpr unsigned kServers = 64;

/** Packets the shell can have dropped or shed on the way in. */
std::uint64_t
lostPackets(Shell &shell)
{
    NetworkRbb &up = shell.network(0);
    const StatGroup &mac = up.mac().stats();
    const StatGroup &mon = up.monitor();
    return mac.value("rx_dropped") + mac.value("rx_bad_fcs") +
           mac.value("link_down_drops") + mon.value("rx_drops") +
           mon.value("rx_bad_fcs") + mon.value("filtered_packets") +
           mon.value("rx_shed");
}

class L4lbImix : public Fixture {
  public:
    explicit L4lbImix(std::uint64_t seed)
        : seed_(seed), rng_(mix(seed, 0)), lb_(kServers),
          hot_(FlowGenConfig{mix(seed, 1), 2048, 48, 64}),
          mice_(FlowGenConfig{mix(seed, 2), 72000, 1, 64})
    {
        pinEngine(engine_);
        shell_ = Shell::makeTailored(
            engine_, DeviceDatabase::instance().byName("DeviceB"),
            Layer4Lb::standardRequirements());
        lb_.bind(engine_, *shell_);
        driver_ = std::make_unique<CmdDriver>(engine_, *shell_);
        driver_->initializeAll();
        lineRate_ = shell_->network(0).mac().lineRateBps();
    }

    PassResult run(std::size_t ops, Tracer &tracer) override;
    std::vector<Metric> microTimings() override;

  private:
    /** IMIX payload size: 64/576/1500 B at 7:4:1. */
    std::uint32_t imixBytes()
    {
        const std::uint64_t r = rng_.next() % 12;
        return r < 7 ? 64 : r < 11 ? 576 : 1500;
    }

    /** Inject @p pkts back to back at line rate from now; returns the
     *  arrival time of the last one. */
    Tick inject(std::vector<PacketDesc> &pkts);

    /** Run past @p last_arrival so the burst drains. */
    void drain(Tick last_arrival, PassResult &res, Tracer &tracer);

    /** A normal burst: 3/4 hot-flow packets, 1/4 mice. */
    std::vector<PacketDesc> trafficBurst();

    /** Distinct hot flows of the last burst that are still pinned,
     *  with their servers. */
    std::vector<std::pair<std::uint64_t, unsigned>> pinnedHotFlows() const;

    /** A probe burst: a SYN of new flow @p fresh, then data packets of
     *  the @p pins flows. */
    std::vector<PacketDesc>
    probeBurst(const std::vector<std::pair<std::uint64_t, unsigned>> &pins,
               std::uint64_t fresh);

    std::uint64_t seed_;
    Rng rng_;
    Engine engine_;
    std::unique_ptr<Shell> shell_;
    Layer4Lb lb_;
    std::unique_ptr<CmdDriver> driver_;
    FlowGenerator hot_;
    FlowGenerator mice_;
    double lineRate_ = 0.0;
    std::vector<std::uint64_t> lastHot_;  ///< hot flows of the last burst
    std::uint64_t probes_ = 0;
};

std::vector<PacketDesc>
L4lbImix::trafficBurst()
{
    std::vector<PacketDesc> pkts;
    pkts.reserve(kBurst);
    lastHot_.clear();
    for (std::size_t i = 0; i < kBurst; ++i) {
        const bool hot = rng_.next() % 4 != 0;
        FlowPacket fp = (hot ? hot_ : mice_).next(engine_.now());
        if (fp.phase == FlowPhase::Data) {
            fp.packet.bytes = imixBytes();
            if (hot)
                lastHot_.push_back(fp.packet.flowHash);
        }
        pkts.push_back(fp.packet);
    }
    return pkts;
}

std::vector<std::pair<std::uint64_t, unsigned>>
L4lbImix::pinnedHotFlows() const
{
    std::vector<std::pair<std::uint64_t, unsigned>> pins;
    for (std::uint64_t h : lastHot_)
        if (lb_.isPinned(h) &&
            std::none_of(pins.begin(), pins.end(),
                         [h](const auto &p) { return p.first == h; }))
            pins.emplace_back(h, lb_.pinnedServer(h));
    return pins;
}

std::vector<PacketDesc>
L4lbImix::probeBurst(
    const std::vector<std::pair<std::uint64_t, unsigned>> &pins,
    std::uint64_t fresh)
{
    std::vector<PacketDesc> pkts;
    PacketDesc syn;
    syn.id = fresh;
    syn.bytes = 64;
    syn.flowHash = fresh;
    syn.flags = kFlagSyn;
    pkts.push_back(syn);
    for (std::size_t i = 1; i < kBurst; ++i) {
        PacketDesc d;
        d.id = i;
        d.bytes = imixBytes();
        d.flowHash = pins[i % pins.size()].first;
        pkts.push_back(d);
    }
    return pkts;
}

Tick
L4lbImix::inject(std::vector<PacketDesc> &pkts)
{
    MacIp &mac = shell_->network(0).mac();
    Tick at = engine_.now();
    for (PacketDesc &p : pkts) {
        at += wireTime(p.bytes, lineRate_);
        p.injected = at;
        mac.injectRx(p, at);
    }
    return at;
}

void
L4lbImix::drain(Tick last_arrival, PassResult &res, Tracer &tracer)
{
    const Tick s0 = engine_.now();
    const std::int64_t h0 = hostNs();
    {
        Scope s(tracer, "sim.run");
        engine_.runFor(last_arrival - s0 + kDrainMargin);
    }
    res.runHostSeconds += static_cast<double>(hostNs() - h0) / 1e9;
    res.runSimNs += static_cast<double>(engine_.now() - s0) / 1e3;
}

PassResult
L4lbImix::run(std::size_t ops, Tracer &tracer)
{
    PassResult res;
    res.opUs.reserve(ops);
    const StatGroup &lbStats = lb_.stats();
    const Tick sim0 = engine_.now();
    const std::uint64_t fwd0 = lbStats.value("forwarded_packets");
    const std::uint64_t lost0 = lostPackets(*shell_);
    std::uint64_t injected = 0;

    const std::int64_t phase0 = hostNs();
    for (std::size_t op = 0; op < ops; ++op) {
        tracer.setOp(static_cast<std::uint32_t>(op));

        // Pin probe set-up (untimed): the still-pinned hot flows of the
        // last burst, their servers, and one downed backend they use.
        std::vector<std::pair<std::uint64_t, unsigned>> pins;
        if (op % kProbeEvery == kProbeEvery - 1)
            pins = pinnedHotFlows();
        const bool probe = !pins.empty();
        std::uint64_t fresh = 0;
        unsigned downed = 0;
        std::vector<PacketDesc> pkts;
        if (probe) {
            downed = pins.front().second;
            lb_.setServerHealthy(downed, false);
            fresh = mix(seed_, 0xf00d0000 + probes_++);
            pkts = probeBurst(pins, fresh);
        }

        const std::int64_t t0 = hostNs();
        {
            Scope s(tracer, "op");
            if (!probe)
                pkts = trafficBurst();
            Tick last;
            {
                Scope i(tracer, "shell.inject");
                last = inject(pkts);
            }
            drain(last, res, tracer);
        }
        res.opUs.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        injected += pkts.size();

        // Output checks (untimed): every injected packet is forwarded,
        // dropped or shed, and probes keep their pins.
        const std::uint64_t accounted =
            lbStats.value("forwarded_packets") - fwd0 +
            lostPackets(*shell_) - lost0;
        if (accounted != injected)
            res.fail(format("burst %zu: %llu packets injected, %llu "
                            "accounted",
                            op, static_cast<unsigned long long>(injected),
                            static_cast<unsigned long long>(accounted)));
        if (probe) {
            for (const auto &[h, server] : pins)
                if (!lb_.isPinned(h) || lb_.pinnedServer(h) != server)
                    res.fail(format("burst %zu: pinned flow %llx moved",
                                    op,
                                    static_cast<unsigned long long>(h)));
            if (!lb_.isPinned(fresh) || lb_.pinnedServer(fresh) == downed)
                res.fail(format("burst %zu: new flow landed on downed "
                                "server %u",
                                op, downed));
            lb_.setServerHealthy(downed, true);
        }
    }
    res.hostSeconds = static_cast<double>(hostNs() - phase0) / 1e9;
    if (ops >= kProbeEvery && probes_ == 0)
        res.fail("no pin probe ran: no hot flow was pinned at a probe");

    const std::uint64_t forwarded = lbStats.value("forwarded_packets") - fwd0;
    res.attempted = ops;
    res.simNs = static_cast<double>(engine_.now() - sim0) / 1e3;
    res.simNsPerOp =
        forwarded ? res.simNs / static_cast<double>(forwarded) : 0.0;
    const StatGroup &mon = shell_->network(0).monitor();
    const double hits = static_cast<double>(lbStats.value("table_hits"));
    const double misses = static_cast<double>(lbStats.value("table_misses"));
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    res.count("shell.net.rx_packets", n(mon.value("rx_packets")), "count");
    res.count("shell.net.rx_drops",
              n(mon.value("rx_drops") +
                shell_->network(0).mac().stats().value("rx_dropped")),
              "count");
    res.count("shell.net.rx_shed", n(mon.value("rx_shed")), "count");
    res.count("shell.net.injected", n(injected), "count");
    res.count("roles.l4lb.forwarded", n(forwarded), "count");
    res.count("roles.l4lb.table_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    res.count("roles.l4lb.evictions", n(lbStats.value("evictions")),
              "count");
    res.count("roles.l4lb.flows_opened", n(lbStats.value("flows_opened")),
              "count");
    res.count("roles.l4lb.pin_probes", n(probes_), "count");
    res.fingerprint = engine_.now() ^ (forwarded << 24) ^
                      (lbStats.value("evictions") << 8) ^
                      lb_.connectionCount();
    return res;
}

std::vector<Metric>
L4lbImix::microTimings()
{
    std::vector<CommandPacket> pkts;
    for (Rbb *rbb : shell_->rbbs())
        for (std::uint16_t code : {kCmdModuleInit, kCmdStatsSnapshot}) {
            CommandPacket p;
            p.rbbId = rbb->rbbId();
            p.instanceId = rbb->instanceId();
            p.commandCode = code;
            pkts.push_back(p);
        }
    std::vector<std::string> targets;
    for (std::size_t i = 0; i < shell_->networkCount(); ++i)
        targets.push_back(shell_->network(i).mac().name());
    targets.push_back(shell_->name());
    return {
        {"cmd.codec_ns", codecNs(pkts), "ns"},
        {"telemetry.counter_lookup_ns",
         counterLookupNs(shell_->network(0).monitor(),
                         {"rx_packets", "rx_bytes", "tx_packets",
                          "tx_bytes"}),
         "ns"},
        {"fault.should_inject_ns", hookQueryNs(targets, engine_.now()),
         "ns"},
    };
}

} // namespace

std::unique_ptr<Fixture>
buildL4lbImix(std::uint64_t seed)
{
    return std::make_unique<L4lbImix>(seed);
}

} // namespace perfbench
