#include <gtest/gtest.h>

#include <set>

#include "common/logging.h"
#include "host/host_app.h"
#include "roles/host_network.h"
#include "roles/sec_gateway.h"
#include "sim/trace.h"
#include "telemetry/profiler.h"

namespace harmonia {
namespace {

const FpgaDevice &
device(const char *name)
{
    return DeviceDatabase::instance().byName(name);
}

TEST(RegDriver, InitializeAllWalksEveryRecipe)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    RegDriver driver(*shell);
    const std::size_t ops = driver.initializeAll();
    // Hundreds of register operations for a full board.
    EXPECT_GT(ops, 200u);
    EXPECT_EQ(driver.opCount(), ops);
    // The recipes landed in hardware: enables and status bits are up.
    EXPECT_EQ(shell->network(0).instance().regs().readByName(
                  "CONFIGURATION_TX_REG1"),
              1u);
    EXPECT_EQ(shell->network(0).instance().regs().readByName(
                  "STAT_RX_STATUS"),
              1u);
    EXPECT_TRUE(shell->network(0).filterEnabled());
    // Host queues were activated through the queue-context writes.
    EXPECT_EQ(shell->host().activeQueueCount(), 64u);
}

TEST(RegDriver, LogRecordsOperations)
{
    Engine engine;
    auto shell = Shell::makeTailored(
        engine, device("DeviceA"), SecGateway::standardRequirements());
    RegDriver driver(*shell);
    driver.write("net_rbb0", "FILTER_ENABLE", 1);
    driver.read("net_rbb0", "MON_RX_PACKETS");
    ASSERT_EQ(driver.log().size(), 2u);
    EXPECT_EQ(driver.log()[0].kind, RegDriverOp::Kind::Write);
    EXPECT_EQ(driver.log()[1].kind, RegDriverOp::Kind::Read);
    EXPECT_TRUE(shell->network().filterEnabled());
    driver.clearLog();
    EXPECT_EQ(driver.opCount(), 0u);
}

TEST(RegDriver, CollectAllStatsReadsEveryCounter)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    RegDriver driver(*shell);
    const std::size_t reads = driver.collectAllStats();
    EXPECT_GT(reads, 50u);
}

TEST(CmdDriver, CallRoundTripsThroughKernel)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    CmdDriver driver(engine, *shell);
    const CommandPacket resp =
        driver.call(kRbbNetwork, 0, kCmdModuleInit);
    EXPECT_EQ(resp.status, kCmdOk);
    EXPECT_TRUE(shell->network().instance().initialized());
    EXPECT_GT(driver.lastLatency(), 0u);
    EXPECT_EQ(driver.commandCount(), 1u);
}

TEST(CmdDriver, RetiresItsControlCompletions)
{
    // Every attempt posts a control-channel DMA; a shell driven only
    // by a CmdDriver must not accumulate their completions.
    Engine engine;
    MetricsRegistry reg;  // outlives the shell's registrations
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    shell->registerTelemetry(reg);
    CmdDriver driver(engine, *shell);
    for (int i = 0; i < 10'000; ++i)
        ASSERT_TRUE(
            driver.callChecked(kRbbSystem, 0, kCmdTimeCount).ok());

    const std::string gauge =
        shell->name() + "/host0/completions_pending";
    double pending = -1.0;
    for (const MetricSample &m : reg.snapshot())
        if (m.name == gauge)
            pending = m.value;
    EXPECT_GE(pending, 0.0) << gauge << " not registered";
    EXPECT_LE(pending, 2.0);
}

TEST(CmdDriver, InitializeAllUsesFewCommands)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    CmdDriver driver(engine, *shell);
    const std::size_t cmds = driver.initializeAll();
    // 5 RBBs + 1 queue config.
    EXPECT_LE(cmds, 8u);
    for (Rbb *rbb : shell->rbbs())
        EXPECT_TRUE(rbb->instance().initialized()) << rbb->name();
    EXPECT_EQ(shell->host().activeQueueCount(), 64u);
}

TEST(CmdDriver, StatsViaSnapshotCommands)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    CmdDriver driver(engine, *shell);
    EXPECT_EQ(driver.collectAllStats(), shell->rbbs().size());
}

TEST(CmdDriver, I2cSidebandIsSlowButIndependent)
{
    // The BMC reaches the kernel over I2C even on a shell without a
    // host RBB (e.g. before PCIe enumerates).
    Engine engine;
    ShellConfig cfg;
    cfg.includeHost = false;
    Shell shell(engine, device("DeviceC"), cfg, "preboot");

    CmdDriver bmc(engine, shell, kCtrlBmc, CmdTransport::I2c);
    const CommandPacket resp =
        bmc.call(kRbbHealth, 0, kCmdSensorRead, {});
    EXPECT_EQ(resp.status, kCmdOk);
    EXPECT_EQ(resp.options,
              static_cast<std::uint32_t>(CmdTransport::I2c));
    const Tick i2c_latency = bmc.lastLatency();

    // The same poll over PCIe on a full shell is much faster.
    Engine engine2;
    auto full = Shell::makeUnified(engine2, device("DeviceA"));
    CmdDriver app(engine2, *full, kCtrlApplication,
                  CmdTransport::Pcie);
    app.call(kRbbHealth, 0, kCmdSensorRead, {});
    EXPECT_GT(i2c_latency, 10 * app.lastLatency());
}

TEST(CmdDriver, OneCallUnfoldsIntoASpanTree)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    CmdDriver driver(engine, *shell);
    driver.initializeAll();  // warm up untraced

    Trace &t = Trace::instance();
    t.setEnabled(true);
    t.clear();
    Profiler prof;
    prof.reset();
    const CommandPacket resp =
        driver.call(kRbbNetwork, 0, kCmdStatsSnapshot);
    t.setEnabled(false);
    ASSERT_EQ(resp.status, kCmdOk);

    // Every span of the call shares one correlation id.
    std::uint64_t corr = 0;
    for (const Trace::Span &s : t.spans())
        if (s.corr != 0)
            corr = s.corr;
    ASSERT_NE(corr, 0u);
    const std::vector<Trace::Span> tree = spanTreeForCorr(t, corr);
    ASSERT_GE(tree.size(), 4u);

    // The expected hops: driver call (root), wire transfer, kernel
    // service, RBB execute.
    std::set<std::string> cats;
    for (const Trace::Span &s : tree)
        cats.insert(s.cat);
    EXPECT_TRUE(cats.count("command"));
    EXPECT_TRUE(cats.count("wire"));
    EXPECT_TRUE(cats.count("rbb"));

    // The root is the driver's call span and lasts exactly the
    // driver's observed latency.
    const Trace::Span &root = tree.front();
    EXPECT_EQ(root.parent, 0u);
    EXPECT_EQ(root.who, "cmd01");
    EXPECT_EQ(root.end - root.begin, driver.lastLatency());

    // Telescoping identity: per-hop self times sum exactly to the
    // end-to-end latency (the profiler's headline guarantee).
    prof.fold();
    Tick self_sum = 0;
    for (const ProfileEntry &e : prof.snapshot())
        self_sum += e.selfTicks;
    EXPECT_EQ(self_sum, driver.lastLatency());
    t.clear();
}

TEST(CmdDriver, TracingOffLeavesTheWireBitIdentical)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    CmdDriver driver(engine, *shell);
    ASSERT_FALSE(Trace::instance().enabled());

    // The kernel echoes the request's Options word into the response
    // verbatim, so the echo proves what went over the wire. Untraced:
    // exactly the transport id, no tag bits — the packet is
    // bit-identical to a build without tracing at all.
    const CommandPacket off =
        driver.call(kRbbNetwork, 0, kCmdStatsSnapshot);
    ASSERT_EQ(off.status, kCmdOk);
    EXPECT_EQ(off.options,
              static_cast<std::uint32_t>(CmdTransport::Pcie));
    EXPECT_EQ(Trace::instance().armedTagCount(), 0u);

    // Traced: the correlation tag rides the Options high half, and
    // the driver disarms it once the call completes.
    Trace::instance().setEnabled(true);
    Trace::instance().clear();
    const CommandPacket on =
        driver.call(kRbbNetwork, 0, kCmdStatsSnapshot);
    Trace::instance().setEnabled(false);
    ASSERT_EQ(on.status, kCmdOk);
    EXPECT_NE(on.options >> 16, 0u);
    EXPECT_EQ(on.options & 0xffffu,
              static_cast<std::uint32_t>(CmdTransport::Pcie));
    EXPECT_EQ(Trace::instance().armedTagCount(), 0u);
    Trace::instance().clear();
}

TEST(HostApplication, InterfaceSelection)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, device("DeviceA"));
    HostApplication reg_app(engine, *shell, HostInterface::Register);
    const std::size_t reg_ops = reg_app.initialize();

    Engine engine2;
    auto shell2 = Shell::makeUnified(engine2, device("DeviceA"));
    HostApplication cmd_app(engine2, *shell2,
                            HostInterface::Command);
    const std::size_t cmd_ops = cmd_app.initialize();

    // The headline claim: orders of magnitude fewer control ops.
    EXPECT_GT(reg_ops, 40 * cmd_ops);
    EXPECT_EQ(reg_app.controlOps(), reg_ops);
}

TEST(HostApplication, DataPlaneRequiresHostRbb)
{
    Engine engine;
    ShellConfig cfg;
    cfg.includeHost = false;
    Shell shell(engine, device("DeviceC"), cfg, "hostless");
    HostApplication app(engine, shell, HostInterface::Command);
    EXPECT_THROW(app.dma(), FatalError);
}

TEST(Migration, RegisterPathScalesWithFullInit)
{
    // Host Network migrating C -> D (the paper's Fig 13 experiment).
    Engine ec, ed;
    const RoleRequirements reqs =
        HostNetwork::standardRequirements();
    // Device C has no memory: relax that requirement for its shell.
    RoleRequirements reqs_c = reqs;
    reqs_c.needsMemory = false;
    auto shell_c =
        Shell::makeTailored(ec, device("DeviceC"), reqs_c);
    auto shell_d = Shell::makeTailored(ed, device("DeviceD"), reqs);

    const std::size_t reg_mods = migrationModifications(
        *shell_c, *shell_d, HostInterface::Register);
    const std::size_t cmd_mods = migrationModifications(
        *shell_c, *shell_d, HostInterface::Command);
    EXPECT_GT(reg_mods, 200u);
    EXPECT_LE(cmd_mods, 5u);
    // Paper: 88-107x reduction; accept the right order of magnitude.
    EXPECT_GT(reg_mods / cmd_mods, 40u);
    EXPECT_LT(reg_mods / cmd_mods, 300u);
}

TEST(Migration, UnchangedPlatformCostsAlmostNothingWithCommands)
{
    Engine e1, e2;
    const RoleRequirements reqs = SecGateway::standardRequirements();
    auto a1 = Shell::makeTailored(e1, device("DeviceA"), reqs);
    auto a2 = Shell::makeTailored(e2, device("DeviceA"), reqs);
    EXPECT_EQ(migrationModifications(*a1, *a2,
                                     HostInterface::Command),
              1u);
}

} // namespace
} // namespace harmonia
