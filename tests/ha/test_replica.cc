/**
 * @file
 * RoleReplica, the one journaled-replication primitive under both the
 * failover coordinator and the fleet manager: journal replay order,
 * all-or-nothing drains, blob-less re-seeds, restore verdicts and
 * reset — driven directly against a SecGateway twin on two cards.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_plan.h"
#include "ha/replica.h"
#include "roles/sec_gateway.h"
#include "shell/unified_shell.h"

namespace harmonia {
namespace {

struct ReplicaBench {
    Engine engine;
    std::unique_ptr<Shell> primary;
    std::unique_ptr<Shell> standby;
    SecGateway rolePrimary;
    SecGateway roleStandby;
    std::unique_ptr<CmdDriver> toPrimary;
    std::unique_ptr<CmdDriver> toStandby;
    StatGroup stats{"replica"};
    RoleReplica replica{stats};
    std::uint8_t slot = 0;

    ReplicaBench()
    {
        const RoleRequirements reqs = SecGateway::standardRequirements();
        const DeviceDatabase &db = DeviceDatabase::instance();
        primary = Shell::makeTailored(engine, db.byName("DeviceA"), reqs);
        standby = Shell::makeTailored(engine, db.byName("DeviceD"), reqs);
        rolePrimary.bind(engine, *primary);
        roleStandby.bind(engine, *standby);
        slot = rolePrimary.slot();
        toPrimary = std::make_unique<CmdDriver>(engine, *primary);
        toStandby = std::make_unique<CmdDriver>(engine, *standby);
    }

    /** Journaled policy write; @p value makes each one distinct. */
    CallOutcome write(std::uint32_t value)
    {
        return replica.call(*toPrimary, slot, kCmdTableWrite,
                            {0xff, 0, value, 0, 1});
    }
};

TEST(RoleReplica, UnackedEntriesReplayInIssueOrder)
{
    ReplicaBench b;
    ASSERT_TRUE(b.write(1).ok());
    ASSERT_TRUE(b.replica.checkpoint(*b.toPrimary, b.slot));
    ASSERT_TRUE(b.write(2).ok());

    // Lose the next ack: the command executes, its response does not
    // reach the host, and the single-attempt call gives up.
    RetryPolicy once;
    once.maxAttempts = 1;
    b.toPrimary->setRetryPolicy(once);
    FaultPlan plan(3);
    plan.addOneShot(FaultKind::RespDrop, b.engine.now(), "cmd01");
    plan.arm();
    EXPECT_FALSE(b.write(3).ok());
    plan.disarm();
    b.toPrimary->setRetryPolicy(RetryPolicy{});
    ASSERT_TRUE(b.write(4).ok());

    EXPECT_EQ(b.rolePrimary.policyCount(), 4u);
    EXPECT_EQ(b.replica.journalDepth(), 3u);
    EXPECT_EQ(b.stats.value("acked_calls"), 3u);
    EXPECT_EQ(b.stats.value("unacked_calls"), 1u);

    ASSERT_TRUE(b.replica.reseed(*b.toStandby, b.slot));
    EXPECT_EQ(b.stats.value("replayed_commands"), 3u);
    // Blob (policy 1) then 2, 3, 4 in issue order: the twin's policy
    // list is identical, order included.
    EXPECT_EQ(b.roleStandby.snapshot(), b.rolePrimary.snapshot());
}

TEST(RoleReplica, FailedDrainKeepsBlobAndJournal)
{
    ReplicaBench b;
    ASSERT_TRUE(b.write(1).ok());
    ASSERT_TRUE(b.replica.checkpoint(*b.toPrimary, b.slot));
    ASSERT_TRUE(b.write(2).ok());
    ASSERT_TRUE(b.write(3).ok());

    // No role answers in the next slot: the drain fails outright.
    const std::uint8_t empty_slot = b.slot + 1;
    EXPECT_FALSE(b.replica.checkpoint(*b.toPrimary, empty_slot));
    EXPECT_EQ(b.stats.value("checkpoint_failures"), 1u);
    EXPECT_EQ(b.stats.value("checkpoints"), 1u);
    EXPECT_TRUE(b.replica.hasBlob());
    EXPECT_EQ(b.replica.journalDepth(), 2u);

    // Blob (policy 1) and journal (2, 3) both survived: together they
    // still rebuild the primary exactly.
    ASSERT_TRUE(b.replica.reseed(*b.toStandby, b.slot));
    EXPECT_EQ(b.roleStandby.snapshot(), b.rolePrimary.snapshot());
}

TEST(RoleReplica, ReseedWithoutBlobReplaysFromZero)
{
    ReplicaBench b;
    for (std::uint32_t v = 1; v <= 3; ++v)
        ASSERT_TRUE(b.write(v).ok());
    ASSERT_FALSE(b.replica.hasBlob());

    ASSERT_TRUE(b.replica.reseed(*b.toStandby, b.slot));
    // Only the three replayed writes crossed the wire: no restore.
    EXPECT_EQ(b.toStandby->commandCount(), 3u);
    EXPECT_EQ(b.stats.value("replayed_commands"), 3u);
    EXPECT_EQ(b.stats.value("restore_failures"), 0u);
    EXPECT_EQ(b.roleStandby.snapshot(), b.rolePrimary.snapshot());
}

TEST(RoleReplica, RejectedRestoreFailsBeforeAnyReplay)
{
    ReplicaBench b;
    ASSERT_TRUE(b.write(1).ok());
    std::vector<std::uint32_t> blob;
    ASSERT_TRUE(b.replica.drain(*b.toPrimary, b.slot, &blob));
    blob.back() ^= 0x1;  // the checksum no longer matches
    b.replica.commit(blob);
    ASSERT_TRUE(b.write(2).ok());

    EXPECT_FALSE(b.replica.reseed(*b.toStandby, b.slot));
    EXPECT_EQ(b.stats.value("restore_failures"), 1u);
    EXPECT_EQ(b.stats.value("replay_failures"), 0u);
    EXPECT_EQ(b.stats.value("replayed_commands"), 0u);
    EXPECT_EQ(b.roleStandby.policyCount(), 0u);
    EXPECT_EQ(b.replica.journalDepth(), 1u);
}

TEST(RoleReplica, ResetEmptiesBlobAndJournal)
{
    ReplicaBench b;
    ASSERT_TRUE(b.write(1).ok());
    ASSERT_TRUE(b.replica.checkpoint(*b.toPrimary, b.slot));
    ASSERT_TRUE(b.write(2).ok());
    ASSERT_TRUE(b.replica.hasBlob());
    ASSERT_EQ(b.replica.journalDepth(), 1u);

    b.replica.reset();
    EXPECT_FALSE(b.replica.hasBlob());
    EXPECT_EQ(b.replica.journalDepth(), 0u);
}

} // namespace
} // namespace harmonia
