/**
 * @file
 * fleet_churn: the scheduler drill's 8-card A-D rack (3 PR slots per
 * card, four role kinds, the drill's request mixer and a DeviceDeath
 * window), driven step by step through FleetManager's public API so
 * every call is timed. One op is one tenant-request step: an
 * admission (after a make-room eviction when the rack is full), the
 * drill's migration cadences, one journaled table write, a manager
 * poll, an obs-hub poll every 50th step (as the drill does), one
 * checkpointTenant every 50th step and 0.5 us of simulated idle
 * time. A host-side ledger of acknowledged writes is checked
 * after every migration and at the end.
 *
 * The victim card dies at 2/5 of the run. That step polls until the
 * watchdog declares the death, and the first step after the window
 * closes disarms the plan: an armed FaultPlan keeps the engine off
 * idle fast-forward, so past the window it would only slow every
 * later step (about 3x) without changing a simulated result.
 */

#include <map>

#include "cmd/checkpoint.h"
#include "common/logging.h"
#include "fault/fault_plan.h"
#include "fleet/scheduler_drill.h"
#include "fleet/tenant_role.h"
#include "workloads.h"

using namespace harmonia;

namespace perfbench {

namespace {

constexpr std::size_t kVictimCard = 2;
constexpr Tick kDeathSpan = 1'500'000'000;
constexpr Tick kStepIdle = 500'000;
/** Poll spacing while waiting for the victim to be declared dead:
 *  the watchdog's heartbeat interval. */
constexpr Tick kHeartbeatGap = 10'000'000;

/** Cards 0-3 carry Xilinx dies, 4-7 Intel dies. */
bool
intelCard(std::size_t card_idx)
{
    return card_idx >= 4;
}

SchedulerDrillConfig
rackConfig(std::uint64_t seed)
{
    SchedulerDrillConfig cfg;
    cfg.seed = seed;
    cfg.victimCard = kVictimCard;
    cfg.deathSpan = kDeathSpan;
    return cfg;
}

class FleetChurn : public Fixture {
  public:
    explicit FleetChurn(std::uint64_t seed)
        : seed_(seed), rack_(rackConfig(seed)), fleet_(rack_.fleet())
    {
        pinEngine(rack_.engine());
    }

    PassResult run(std::size_t ops, Tracer &tracer) override;
    std::vector<Metric> microTimings() override;

  private:
    /** Name of a Placed tenant near @p pick, or "" when none. */
    std::string pickPlaced(std::uint64_t pick) const;

    /** Entry of step @p step in its 4-step block's seeded permutation
     *  of {0,1,2,3}; @p stream keeps kind and priority independent. */
    unsigned dealt(std::size_t step, unsigned stream) const;

    /** One journaled table write; false when it was not acked. */
    bool write(const std::string &tenant, std::uint64_t r,
               PassResult &res, Tracer &tracer);

    /** Migrate @p tenant (optionally pinned) after loading its table,
     *  then check the ledger against the migrated table. */
    bool migrate(const std::string &tenant, const std::string &target,
                 std::uint64_t r, PassResult &res, Tracer &tracer);

    void verify(const std::string &tenant, PassResult &res);

    /** runFor with its host time and simulated span accounted. */
    void idle(Tick span, PassResult &res, Tracer &tracer);

    std::uint64_t seed_;
    SchedulerDrill rack_;  ///< rack build only; run() is never called
    FleetManager &fleet_;
    std::vector<std::string> everAdmitted_;
    std::map<std::string, std::map<std::uint32_t, std::uint32_t>> ledger_;
    std::uint64_t nextTenant_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t callRetries_ = 0;
    std::uint64_t callTimeouts_ = 0;
    double callSimTicks_ = 0.0;
    std::uint64_t verified_ = 0;
    std::vector<std::vector<std::uint32_t>> blobs_;
};

std::string
FleetChurn::pickPlaced(std::uint64_t pick) const
{
    const std::size_t n = everAdmitted_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &name = everAdmitted_[(pick + i) % n];
        if (fleet_.tenantState(name) == FleetManager::TenantState::Placed)
            return name;
    }
    return "";
}

unsigned
FleetChurn::dealt(std::size_t step, unsigned stream) const
{
    unsigned perm[4] = {0, 1, 2, 3};
    std::uint64_t r = mix(seed_ ^ (0x5eedULL << stream), step / 4);
    for (unsigned i = 3; i > 0; --i) {
        std::swap(perm[i], perm[r % (i + 1)]);
        r /= i + 1;
    }
    return perm[step % 4];
}

bool
FleetChurn::write(const std::string &tenant, std::uint64_t r,
                  PassResult &res, Tracer &tracer)
{
    if (tenant.empty())
        return true;
    const std::uint32_t key = static_cast<std::uint32_t>(r % 48);
    const std::uint32_t value = static_cast<std::uint32_t>(r >> 5) | 1u;
    const std::size_t card = fleet_.cardIndex(fleet_.tenantCard(tenant));
    const Tick t0 = rack_.engine().now();
    CallOutcome out;
    {
        Scope s(tracer, "fleet.call");
        out = fleet_.call(tenant, kCmdTableWrite, {key, value});
    }
    ++calls_;
    callSimTicks_ += static_cast<double>(rack_.engine().now() - t0);
    callRetries_ += out.attempts > 0 ? out.attempts - 1 : 0;
    if (out.status == CallStatus::Timeout)
        ++callTimeouts_;
    if (!out.ok() || out.response.status != kCmdOk) {
        // Only the card the DeviceDeath window kills may fail a call.
        if (card != kVictimCard)
            res.fail(format("call to %s on healthy card %zu: %s",
                              tenant.c_str(), card, toString(out.status)));
        return false;
    }
    ledger_[tenant][key] = value;
    return true;
}

void
FleetChurn::verify(const std::string &tenant, PassResult &res)
{
    const auto it = ledger_.find(tenant);
    if (it == ledger_.end())
        return;
    const auto *role =
        static_cast<const TenantRole *>(fleet_.tenantRole(tenant));
    for (const auto &[key, value] : it->second) {
        if (role != nullptr && role->valueOf(key) == value)
            ++verified_;
        else
            res.fail(format("acked write %s[%u] lost", tenant.c_str(),
                              key));
    }
}

bool
FleetChurn::migrate(const std::string &tenant, const std::string &target,
                    std::uint64_t r, PassResult &res, Tracer &tracer)
{
    bool ok = true;
    for (unsigned w = 0; w < 3; ++w)
        ok = write(tenant, mix(seed_, r + w), res, tracer) && ok;
    PlacementDecision d;
    {
        Scope s(tracer, "fleet.migrate");
        d = fleet_.migrate(tenant, target);
    }
    if (!d.evictTenant.empty())
        ledger_.erase(d.evictTenant);
    if (d.placed)
        verify(tenant, res);
    return ok;
}

void
FleetChurn::idle(Tick span, PassResult &res, Tracer &tracer)
{
    const Tick s0 = rack_.engine().now();
    const std::int64_t h0 = hostNs();
    {
        Scope s(tracer, "sim.run");
        rack_.engine().runFor(span);
    }
    res.runHostSeconds += static_cast<double>(hostNs() - h0) / 1e9;
    res.runSimNs += static_cast<double>(rack_.engine().now() - s0) / 1e3;
}

PassResult
FleetChurn::run(std::size_t ops, Tracer &tracer)
{
    static const char *kKinds[] = {"kv_cache", "kv_index", "mem_cache",
                                   "edge_fw"};
    PassResult res;
    res.opUs.reserve(ops);
    Engine &engine = rack_.engine();
    FaultPlan &plan = rack_.plan();
    const std::string victim = fleet_.cardName(kVictimCard);
    const std::size_t killStep = ops * 2 / 5;
    Tick windowEnd = 0;
    std::uint64_t admitted = 0, rejects = 0, migrations = 0;
    std::uint64_t migrateRefused = 0, checkpoints = 0;
    double placementCycles = 0.0, migrationCycles = 0.0;
    const Tick sim0 = engine.now();

    const std::int64_t phase0 = hostNs();
    for (std::size_t step = 0; step < ops; ++step) {
        const std::uint64_t r = mix(seed_, step);
        tracer.setOp(static_cast<std::uint32_t>(step));
        bool stepFailed = false;
        const std::int64_t t0 = hostNs();
        {
            Scope op(tracer, "op");
            if (step == killStep) {
                // Kill the victim and poll until its watchdog declares
                // it dead, so every run displaces its tenants at the
                // start of the window rather than whenever a slow step
                // lets enough heartbeats through.
                windowEnd = engine.now() + kDeathSpan;
                plan.addWindow(FaultKind::DeviceDeath, engine.now(),
                               windowEnd, 1.0, victim);
                plan.arm();
                while (!fleet_.cardWatchdog(kVictimCard).dead() &&
                       engine.now() < windowEnd) {
                    {
                        Scope s(tracer, "fleet.poll");
                        fleet_.poll();
                    }
                    idle(kHeartbeatGap, res, tracer);
                }
            } else if (windowEnd != 0 && engine.now() >= windowEnd &&
                       FaultPlan::active() == &plan) {
                // The window has closed: nothing can inject any more,
                // and an armed plan only keeps the engine off idle
                // fast-forward (simulated results are identical).
                plan.disarm();
            }

            // A full rack gets one make-room eviction first.
            if (fleet_.freeSlots() == 0) {
                const std::string out = pickPlaced(r >> 40);
                bool evicted = false;
                if (!out.empty()) {
                    Scope s(tracer, "fleet.evict");
                    evicted = fleet_.evict(out);
                }
                if (evicted)
                    ledger_.erase(out);
            }

            // Kinds and priorities are dealt from per-block seeded
            // permutations, so every run requests the same mix and
            // the seed decides order, pairing and targets.
            const std::uint64_t a = r >> 8;
            FleetRoleSpec spec;
            spec.tenant = format("t%05llu", static_cast<unsigned long long>(
                                                nextTenant_++));
            spec.kind = kKinds[dealt(step, 0)];
            spec.priority = dealt(step, 1);
            if (spec.kind == "edge_fw")
                spec.antiAffinity = format(
                    "fwgrp%llu",
                    static_cast<unsigned long long>((a >> 12) % 3));
            PlacementDecision d;
            {
                Scope s(tracer, "fleet.admit");
                d = fleet_.admit(spec);
            }
            if (!d.evictTenant.empty())
                ledger_.erase(d.evictTenant);
            if (d.placed) {
                ++admitted;
                everAdmitted_.push_back(spec.tenant);
                placementCycles +=
                    static_cast<double>(fleet_.lastPlacementCycles());
            } else {
                ++rejects;
                stepFailed = true;
                if (fleet_.hasTenant(spec.tenant))
                    everAdmitted_.push_back(spec.tenant);
            }

            // The drill's migration cadence, every 211th step pinned
            // cross-vendor onto one of the Intel DeviceD cards.
            std::string target;
            std::string mover;
            if (step % 211 == 140) {
                mover = pickPlaced(r >> 32);
                if (!mover.empty() &&
                    !intelCard(fleet_.cardIndex(fleet_.tenantCard(mover))))
                    target = fleet_.cardName(6 + (r >> 40) % 2);
                else
                    mover.clear();
            } else if (step % 7 == 3) {
                mover = pickPlaced(r >> 32);
            }
            if (!mover.empty()) {
                const std::uint64_t before = fleet_.migrations();
                stepFailed =
                    !migrate(mover, target, r, res, tracer) || stepFailed;
                if (fleet_.migrations() != before) {
                    ++migrations;
                    migrationCycles += static_cast<double>(
                        fleet_.lastMigrationDowntimeCycles());
                } else {
                    ++migrateRefused;
                }
            }

            // The drill never calls checkpointTenant itself (its
            // manager drains inside migrate and every 500 ms of
            // simulated time in poll), so one explicit call rides the
            // hub poll's cadence to time it.
            if (step % 50 == 42) {
                const std::string t = pickPlaced(r >> 16);
                if (!t.empty()) {
                    Scope s(tracer, "fleet.checkpoint");
                    checkpoints += fleet_.checkpointTenant(t) ? 1 : 0;
                }
            }

            stepFailed =
                !write(pickPlaced(r >> 24), r >> 33, res, tracer) ||
                stepFailed;
            {
                Scope s(tracer, "fleet.poll");
                fleet_.poll();
            }
            if (step % 50 == 17) {
                Scope s(tracer, "obs.hub_poll");
                rack_.hub().poll(engine.now());
            }
            idle(kStepIdle, res, tracer);
        }
        res.opUs.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        res.refused += stepFailed ? 1 : 0;
    }
    const Tick simSteps = engine.now() - sim0;

    // Settle: outlive the death window so the victim revives, then let
    // the manager re-place degraded tenants.
    tracer.setOp(static_cast<std::uint32_t>(ops));
    {
        Scope settle(tracer, "bench.settle");
        while (windowEnd != 0 && engine.now() < windowEnd + 100'000'000) {
            {
                Scope s(tracer, "fleet.poll");
                fleet_.poll();
            }
            idle(20'000'000, res, tracer);
        }
        plan.disarm();
        for (int i = 0; i < 100 && fleet_.degradedCount() != 0; ++i) {
            {
                Scope s(tracer, "fleet.poll");
                fleet_.poll();
            }
            idle(5'000'000, res, tracer);
        }
        Scope v(tracer, "bench.verify");
        for (const auto &kv : ledger_)
            if (fleet_.tenantState(kv.first) ==
                FleetManager::TenantState::Placed)
                verify(kv.first, res);
    }
    res.hostSeconds = static_cast<double>(hostNs() - phase0) / 1e9;

    if (fleet_.degradedCount() != 0)
        res.fail(format("%zu tenants still degraded at the end",
                        fleet_.degradedCount()));
    const StatGroup &dog = fleet_.cardWatchdog(kVictimCard).stats();
    if (dog.value("deaths_declared") == 0 || dog.value("revivals") == 0 ||
        fleet_.cardWatchdog(kVictimCard).dead())
        res.fail(format("victim card deaths=%llu revivals=%llu",
                        static_cast<unsigned long long>(
                            dog.value("deaths_declared")),
                        static_cast<unsigned long long>(
                            dog.value("revivals"))));
    if (migrations == 0)
        res.fail("no migration landed");

    res.attempted = ops;
    res.simNs = static_cast<double>(engine.now() - sim0) / 1e3;
    res.simNsPerOp = static_cast<double>(simSteps) / 1e3 /
                     static_cast<double>(ops);
    std::uint64_t deaths = 0, revivals = 0;
    for (std::size_t i = 0; i < fleet_.cardCount(); ++i) {
        deaths += fleet_.cardWatchdog(i).stats().value("deaths_declared");
        revivals += fleet_.cardWatchdog(i).stats().value("revivals");
    }
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    res.count("fleet.placement_sim_cycles.mean",
              admitted ? placementCycles / n(admitted) : 0.0, "sim_cycles");
    res.count("fleet.migration_sim_cycles.mean",
              migrations ? migrationCycles / n(migrations) : 0.0,
              "sim_cycles");
    res.count("fleet.placements", n(fleet_.placements()), "count");
    res.count("fleet.migrations", n(migrations), "count");
    res.count("fleet.migrate_refused", n(migrateRefused), "count");
    res.count("fleet.rejects", n(rejects), "count");
    res.count("fleet.checkpoints", n(checkpoints), "count");
    res.count("fleet.journal_high_water", n(fleet_.journalHighWater()),
              "count");
    res.count("fleet.verified_writes", n(verified_), "count");
    res.count("ha.deaths_declared", n(deaths), "count");
    res.count("ha.revivals", n(revivals), "count");
    res.count("fault.injected_total", n(plan.injectedTotal()), "count");
    res.count("host.retries", n(callRetries_), "count");
    res.count("host.timeouts", n(callTimeouts_), "count");
    res.count("host.call_sim_ns.mean",
              calls_ ? callSimTicks_ / 1e3 / n(calls_) : 0.0, "sim_ns");
    res.fingerprint = fleet_.fingerprint();

    for (std::size_t i = 0; i < everAdmitted_.size() && blobs_.size() < 16;
         ++i)
        if (const Role *role = fleet_.tenantRole(everAdmitted_[i]))
            blobs_.push_back(role->snapshot());
    return res;
}

std::vector<Metric>
FleetChurn::microTimings()
{
    // Checkpoint codec on drained blobs: decode, then re-seal.
    double ckptUs = 0.0;
    if (!blobs_.empty()) {
        ckptUs = nsPerCall(
                     [this](std::size_t i) {
                         const auto &blob = blobs_[i % blobs_.size()];
                         CheckpointImage img;
                         if (decodeCheckpoint(blob, 0, &img) !=
                                 CheckpointError::Ok ||
                             encodeCheckpoint(img.kindId, img.stats,
                                              img.payload) != blob)
                             fatal("checkpoint codec round trip failed");
                     },
                     256) /
                 1e3;
    }
    std::vector<CommandPacket> pkts;
    for (std::uint64_t i = 0; i < 64; ++i) {
        CommandPacket p;
        p.rbbId = kRoleRbbIdBase;
        p.commandCode = kCmdTableWrite;
        p.data = {static_cast<std::uint32_t>(i % 48),
                  static_cast<std::uint32_t>(mix(seed_, i)) | 1u};
        pkts.push_back(p);
    }
    std::vector<std::string> cards;
    for (std::size_t i = 0; i < fleet_.cardCount(); ++i)
        cards.push_back(fleet_.cardName(i));
    // Time the hook queries against the drill's plan armed again; its
    // window has closed, so nothing can fire.
    rack_.plan().arm();
    const double hookNs = hookQueryNs(cards, rack_.engine().now());
    rack_.plan().disarm();
    return {
        {"cmd.checkpoint_codec_us", ckptUs, "us"},
        {"cmd.codec_ns", codecNs(pkts), "ns"},
        {"telemetry.counter_lookup_ns",
         counterLookupNs(fleet_.stats(), {"acked_calls", "checkpoints",
                                          "placements"}),
         "ns"},
        {"fault.should_inject_ns", hookNs, "ns"},
    };
}

} // namespace

std::unique_ptr<Fixture>
buildFleetChurn(std::uint64_t seed)
{
    return std::make_unique<FleetChurn>(seed);
}

} // namespace perfbench
