#include "workloads.h"

#include "common/logging.h"
#include "fault/fault_plan.h"

using namespace harmonia;

namespace perfbench {

void
pinEngine(Engine &engine)
{
    engine.setThreads(1);
    engine.setParallel(false);
    engine.setIdleFastForward(true);
    engine.setOwnershipAudit(false);
}

double
codecNs(const std::vector<CommandPacket> &pkts)
{
    if (pkts.empty())
        return 0.0;
    return nsPerCall(
        [&pkts](std::size_t i) {
            const std::vector<std::uint8_t> bytes =
                pkts[i % pkts.size()].encode();
            if (!decodeCommand(bytes).ok())
                fatal("command codec round trip failed");
        },
        4096);
}

double
counterLookupNs(const StatGroup &like,
                const std::vector<std::string> &hot_names)
{
    StatGroup g(like.name());
    for (const auto &[name, value] : like.snapshot())
        g.counter(name).inc(value);
    return nsPerCall(
        [&](std::size_t i) {
            g.counter(hot_names[i % hot_names.size()]).inc();
        },
        8192);
}

double
hookQueryNs(const std::vector<std::string> &targets, Tick now)
{
    static const FaultKind kKinds[] = {FaultKind::DeviceDeath,
                                       FaultKind::CmdDrop,
                                       FaultKind::StreamBitFlip};
    FaultPlan *plan = FaultPlan::active();
    const std::uint64_t before = plan ? plan->injectedTotal() : 0;
    const double ns = nsPerCall(
        [&](std::size_t i) {
            if (injectFault(kKinds[i % 3], targets[i % targets.size()],
                            now))
                fatal("timing query injected a fault");
        },
        8192);
    if (plan != nullptr && plan->injectedTotal() != before)
        fatal("timing queries changed the fault plan");
    return ns;
}

} // namespace perfbench
