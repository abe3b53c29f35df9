/**
 * @file
 * One role's replication state — its last checkpoint blob and the
 * journal of commands issued since — and the only code that moves it
 * over the wire (the chunked kCmdCheckpoint / kCmdRestore
 * conversation with the role's CheckpointStreamer). The failover
 * coordinator keeps one replica per managed pair, the fleet manager
 * one per tenant. Driver and slot are arguments, not state, because a
 * fleet tenant changes card and slot when it migrates.
 *
 * Zero acknowledged-command loss (DESIGN.md §14): an acked call is
 * either inside the blob or still in the journal, and reseed()
 * replays the journal acked or not — at-least-once.
 */

#ifndef HARMONIA_HA_REPLICA_H_
#define HARMONIA_HA_REPLICA_H_

#include <vector>

#include "host/cmd_driver.h"

namespace harmonia {

/** Checkpoint blob + journal tail of one replicated role. */
class RoleReplica {
  public:
    /** Outcomes are counted in @p stats: acked_calls, unacked_calls,
     *  checkpoints, replayed_commands and the checkpoint_failures /
     *  restore_failures / replay_failures failure counts. */
    explicit RoleReplica(StatGroup &stats) : stats_(stats) {}

    /** Journal the command, then issue it to the role at @p slot. */
    CallOutcome call(CmdDriver &driver, std::uint8_t slot,
                     std::uint16_t code,
                     const std::vector<std::uint32_t> &data);

    /** Fetch a fresh blob into @p blob without adopting it; false on
     *  transport failure or a stream that stops making progress. */
    bool drain(CmdDriver &driver, std::uint8_t slot,
               std::vector<std::uint32_t> *blob);

    /** Adopt @p blob and clear the journal it covers. */
    void commit(std::vector<std::uint32_t> blob);

    /** drain() + commit(): a failed drain keeps blob and journal. */
    bool checkpoint(CmdDriver &driver, std::uint8_t slot);

    /**
     * Re-seed a freshly loaded role at @p slot: push the blob (none
     * drained yet: skip, replay rebuilds from zero), then replay every
     * journal entry in issue order. Any restore verdict but a clean
     * zero fails before the replay starts.
     */
    bool reseed(CmdDriver &driver, std::uint8_t slot);

    void reset()
    {
        blob_.clear();
        journal_.clear();
    }

    bool hasBlob() const { return !blob_.empty(); }
    std::size_t journalDepth() const { return journal_.size(); }

  private:
    struct JournalEntry {
        std::uint16_t code = 0;
        std::vector<std::uint32_t> data;
    };

    StatGroup &stats_;
    std::vector<std::uint32_t> blob_;
    std::vector<JournalEntry> journal_;
};

} // namespace harmonia

#endif // HARMONIA_HA_REPLICA_H_
