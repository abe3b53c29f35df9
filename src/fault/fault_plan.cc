#include "fault/fault_plan.h"

#include "common/fnv.h"
#include "obs/flight_recorder.h"  // harmonia-lint: allow(LAYER-002) flight-recorder arm/notify hooks

namespace harmonia {

namespace {

FaultPlan *gArmed = nullptr;

// splitmix64: seeds the per-rule streams so adding a rule never
// perturbs the draws of the rules before it.
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// xorshift64*: one self-contained stream per rule, identical on every
// platform (no <random> distribution variance).
std::uint64_t
xorshift64star(std::uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dULL;
}

double
uniform01(std::uint64_t &s)
{
    return static_cast<double>(xorshift64star(s) >> 11) * 0x1.0p-53;
}

} // namespace

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::StreamBitFlip:
        return "stream_bit_flip";
      case FaultKind::StreamBeatDrop:
        return "stream_beat_drop";
      case FaultKind::CdcBeatDrop:
        return "cdc_beat_drop";
      case FaultKind::CmdCorrupt:
        return "cmd_corrupt";
      case FaultKind::CmdTruncate:
        return "cmd_truncate";
      case FaultKind::CmdDrop:
        return "cmd_drop";
      case FaultKind::RespCorrupt:
        return "resp_corrupt";
      case FaultKind::RespDrop:
        return "resp_drop";
      case FaultKind::DmaStall:
        return "dma_stall";
      case FaultKind::DmaCompletionLoss:
        return "dma_completion_loss";
      case FaultKind::ThermalExcursion:
        return "thermal_excursion";
      case FaultKind::PrLoadFail:
        return "pr_load_fail";
      case FaultKind::LinkFlap:
        return "link_flap";
      case FaultKind::DeviceDeath:
        return "device_death";
      case FaultKind::KernelWedge:
        return "kernel_wedge";
      case FaultKind::PrSlotCorrupt:
        return "pr_slot_corrupt";
      case FaultKind::kCount:
        break;
    }
    return "?";
}

FaultPlan::FaultPlan(std::uint64_t seed)
    : seed_(seed), seedSequence_(seed), fingerprint_(kFnv1aOffset),
      stats_("fault_plan")
{
}

FaultPlan::~FaultPlan()
{
    disarm();
}

void
FaultPlan::addWindow(FaultKind kind, Tick from, Tick until, double rate,
                     std::string target_filter, std::uint64_t param)
{
    Rule r;
    r.kind = kind;
    r.from = from;
    r.until = until;
    r.rate = rate;
    r.filter = std::move(target_filter);
    r.param = param;
    r.rng = splitmix64(seedSequence_);
    rules_.push_back(std::move(r));
}

void
FaultPlan::addOneShot(FaultKind kind, Tick at,
                      std::string target_filter, std::uint64_t param)
{
    Rule r;
    r.kind = kind;
    r.from = at;
    r.oneShot = true;
    r.filter = std::move(target_filter);
    r.param = param;
    r.rng = splitmix64(seedSequence_);
    rules_.push_back(std::move(r));
}

bool
FaultPlan::shouldInject(FaultKind kind, const std::string &target,
                        Tick now, std::uint64_t *param)
{
    for (Rule &r : rules_) {
        if (r.kind != kind)
            continue;
        if (!r.filter.empty() &&
            target.find(r.filter) == std::string::npos)
            continue;
        if (r.oneShot) {
            if (r.fired || now < r.from)
                continue;
            r.fired = true;
        } else {
            if (now < r.from || now >= r.until)
                continue;
            if (r.rate < 1.0 && uniform01(r.rng) >= r.rate)
                continue;
        }
        if (param != nullptr)
            *param = r.param;
        record(kind, target, now);
        return true;
    }
    return false;
}

void
FaultPlan::record(FaultKind kind, const std::string &target, Tick now)
{
    ++counts_[static_cast<std::size_t>(kind)];
    ++total_;
    stats_.counter(std::string("injected_") + toString(kind)).inc();
    fingerprint_ =
        fnv1aValue(fingerprint_, static_cast<std::uint64_t>(kind));
    fingerprint_ = fnv1aValue(fingerprint_, now);
    fingerprint_ = fnv1aString(fingerprint_, target);
    if (log_.size() < kMaxLogEntries)
        log_.push_back(Event{kind, now, target});
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteFault(toString(kind), target, now);
}

std::uint64_t
FaultPlan::injected(FaultKind kind) const
{
    if (kind >= FaultKind::kCount)
        return 0;
    return counts_[static_cast<std::size_t>(kind)];
}

void
FaultPlan::registerTelemetry(MetricsRegistry &reg,
                             const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addGauge(prefix + "/injected_total", [this] {
        return static_cast<double>(total_);
    });
}

void
FaultPlan::arm()
{
    gArmed = this;
}

void
FaultPlan::disarm()
{
    if (gArmed == this)
        gArmed = nullptr;
}

FaultPlan *
FaultPlan::active()
{
    return gArmed;
}

} // namespace harmonia
