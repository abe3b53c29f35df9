#include "ha/failover.h"

#include "common/fnv.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "sim/clock.h"

namespace harmonia {

FailoverCoordinator::FailoverCoordinator(Engine &engine,
                                         Shell &primary, Shell &standby,
                                         FailoverConfig config)
    : engine_(engine), primary_(primary), standby_(standby),
      cfg_(config), primaryDriver_(engine, primary),
      standbyDriver_(engine, standby),
      watchdog_(std::make_unique<Watchdog>(engine, primary,
                                           config.watchdog)),
      stats_("failover")
{
    if (&primary == &standby)
        fatal("failover needs two distinct shells");
}

void
FailoverCoordinator::manageRole(Role &primary_role, Role &standby_role)
{
    if (!primary_role.bound() || !standby_role.bound())
        fatal("manageRole: both roles must be bound");
    if (primary_role.name() != standby_role.name())
        fatal("manageRole: '%s' and '%s' are different kinds",
              primary_role.name().c_str(),
              standby_role.name().c_str());
    if (primary_role.slot() != standby_role.slot())
        fatal("manageRole: role '%s' occupies slot %u on the primary "
              "but %u on the standby",
              primary_role.name().c_str(), primary_role.slot(),
              standby_role.slot());
    for (const Pair &p : pairs_)
        if (p.slot == primary_role.slot())
            fatal("manageRole: slot %u is already managed",
                  primary_role.slot());
    pairs_.push_back(Pair{&primary_role, &standby_role,
                          primary_role.slot(), RoleReplica(stats_)});
}

CallOutcome
FailoverCoordinator::call(std::uint8_t slot, std::uint16_t code,
                          const std::vector<std::uint32_t> &data)
{
    for (Pair &p : pairs_)
        if (p.slot == slot)
            return p.replica.call(
                failedOver_ ? standbyDriver_ : primaryDriver_, slot,
                code, data);
    fatal("call: slot %u is not managed", slot);
}

bool
FailoverCoordinator::checkpointNow()
{
    if (failedOver_)
        return false;
    // All-or-nothing: drain every role first, commit only when all
    // delivered, so blobs + journal marks stay a consistent cut.
    std::vector<std::vector<std::uint32_t>> drained(pairs_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        if (!pairs_[i].replica.drain(primaryDriver_, pairs_[i].slot,
                                     &drained[i]))
            return false;
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        pairs_[i].replica.commit(std::move(drained[i]));
    lastCheckpointAt_ = engine_.now();
    everCheckpointed_ = true;
    stats_.counter("checkpoints").inc();
    return true;
}

bool
FailoverCoordinator::failover()
{
    if (failedOver_)
        return false;
    const Tick last_alive = watchdog_->lastAliveAt();
    stats_.counter("failovers").inc();
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(stats_.name(), "failover_started",
                          engine_.now());

    // Re-seed shell-level RBB state (module init, host queue
    // config) so the standby's shell matches a freshly-provisioned
    // card before role state lands on it.
    standbyDriver_.initializeAll();

    for (Pair &p : pairs_)
        if (!p.replica.reseed(standbyDriver_, p.slot))
            return false;

    failedOver_ = true;
    watchdog_ =
        std::make_unique<Watchdog>(engine_, standby_, cfg_.watchdog);
    if (!watchdog_->beat()) {
        stats_.counter("standby_unresponsive").inc();
        return false;
    }
    downtimeTicks_ =
        last_alive != 0 ? engine_.now() - last_alive : 0;
    stats_.counter("downtime_ticks").inc(downtimeTicks_);
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(stats_.name(), "failover_complete",
                          engine_.now());
    return true;
}

bool
FailoverCoordinator::poll()
{
    watchdog_->poll();
    if (failedOver_)
        return false;
    if (watchdog_->dead())
        return failover();
    // Don't attempt a drain while the card is suspect (missed
    // beats): every chunk call would burn a full retry ladder, and
    // the last good cut already covers the acked history.
    if (watchdog_->consecutiveMisses() == 0 &&
        (!everCheckpointed_ ||
         engine_.now() >= lastCheckpointAt_ + cfg_.checkpointInterval))
        checkpointNow();
    return false;
}

Cycles
FailoverCoordinator::downtimeCycles() const
{
    const Clock *clk = standby_.kernelClock();
    return clk != nullptr ? clk->ticksToCycles(downtimeTicks_)
                          : 0;
}

std::uint64_t
FailoverCoordinator::fingerprint() const
{
    std::uint64_t hash = kFnv1aOffset;
    for (const Pair &p : pairs_) {
        const Role *role = failedOver_ ? p.standby : p.primary;
        for (const std::uint32_t w : role->snapshot())
            hash = fnv1aWord(hash, w);
    }
    return hash;
}

} // namespace harmonia
