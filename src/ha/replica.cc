#include "ha/replica.h"

#include <algorithm>

#include "cmd/checkpoint.h"
#include "roles/role.h"

namespace harmonia {

namespace {

bool
answeredOk(const CallOutcome &out)
{
    return out.ok() && out.response.status == kCmdOk;
}

/** Resumable chunked kCmdCheckpoint fetch of the whole blob. */
bool
fetchBlob(CmdDriver &driver, std::uint8_t slot,
          std::vector<std::uint32_t> *blob)
{
    blob->clear();
    std::size_t total = 0;
    do {
        const CallOutcome out = driver.callChecked(
            kRoleRbbIdBase, slot, kCmdCheckpoint,
            {static_cast<std::uint32_t>(blob->size())});
        if (!answeredOk(out) || out.response.data.empty())
            return false;
        total = out.response.data[0];
        if (out.response.data.size() == 1 && blob->size() < total)
            return false;  // no progress: would spin forever
        blob->insert(blob->end(), out.response.data.begin() + 1,
                     out.response.data.end());
    } while (blob->size() < total);
    return blob->size() == total;
}

/** Chunked kCmdRestore push; only a clean zero verdict succeeds. */
bool
pushBlob(CmdDriver &driver, std::uint8_t slot,
         const std::vector<std::uint32_t> &blob)
{
    const std::uint32_t total = static_cast<std::uint32_t>(blob.size());
    for (std::size_t offset = 0; offset < blob.size();) {
        const std::size_t n = std::min(CheckpointStreamer::kChunkWords,
                                       blob.size() - offset);
        std::vector<std::uint32_t> req = {
            total, static_cast<std::uint32_t>(offset)};
        req.insert(req.end(), blob.begin() + offset,
                   blob.begin() + offset + n);
        const CallOutcome out =
            driver.callChecked(kRoleRbbIdBase, slot, kCmdRestore, req);
        if (!answeredOk(out))
            return false;
        offset += n;
        // Final chunk: the response carries [1, CheckpointError].
        if (offset == blob.size())
            return out.response.data.size() >= 2 &&
                   out.response.data[0] == 1 &&
                   out.response.data[1] == 0;
    }
    return false;  // empty blob: reseed() never pushes one
}

} // namespace

CallOutcome
RoleReplica::call(CmdDriver &driver, std::uint8_t slot,
                  std::uint16_t code,
                  const std::vector<std::uint32_t> &data)
{
    journal_.push_back(JournalEntry{code, data});
    const CallOutcome out =
        driver.callChecked(kRoleRbbIdBase, slot, code, data);
    stats_.counter(answeredOk(out) ? "acked_calls" : "unacked_calls")
        .inc();
    return out;
}

bool
RoleReplica::drain(CmdDriver &driver, std::uint8_t slot,
                   std::vector<std::uint32_t> *blob)
{
    if (fetchBlob(driver, slot, blob))
        return true;
    stats_.counter("checkpoint_failures").inc();
    return false;
}

void
RoleReplica::commit(std::vector<std::uint32_t> blob)
{
    blob_ = std::move(blob);
    journal_.clear();
}

bool
RoleReplica::checkpoint(CmdDriver &driver, std::uint8_t slot)
{
    std::vector<std::uint32_t> blob;
    if (!drain(driver, slot, &blob))
        return false;
    commit(std::move(blob));
    stats_.counter("checkpoints").inc();
    return true;
}

bool
RoleReplica::reseed(CmdDriver &driver, std::uint8_t slot)
{
    if (hasBlob() && !pushBlob(driver, slot, blob_)) {
        stats_.counter("restore_failures").inc();
        return false;
    }
    // Issue order, acked or not: at-least-once delivery closes the
    // two-generals window (executed, ack lost).
    for (const JournalEntry &e : journal_) {
        const CallOutcome out =
            driver.callChecked(kRoleRbbIdBase, slot, e.code, e.data);
        if (!answeredOk(out)) {
            stats_.counter("replay_failures").inc();
            return false;
        }
        stats_.counter("replayed_commands").inc();
    }
    return true;
}

} // namespace harmonia
