/**
 * @file
 * Self-test for harmonia-analyze: the committed fixture repo trips
 * every rule family, suppression annotations silence exactly the
 * annotated line, and — the CI-blocking acceptance criterion — the
 * real source tree is Error-free.
 */

#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"

#ifndef HARMONIA_SOURCE_ROOT
#error "HARMONIA_SOURCE_ROOT must point at the repository root"
#endif

namespace harmonia {
namespace {

const std::string kRoot = HARMONIA_SOURCE_ROOT;
const std::string kBadRepo =
    kRoot + "/tests/analysis/fixtures/badrepo";

TEST(Analyze, CleanTreeHasZeroErrors)
{
    const drc::DrcReport report = analysis::analyzeTree(kRoot);
    for (const drc::Diagnostic &d : report.diagnostics())
        if (d.severity == drc::Severity::Error)
            ADD_FAILURE() << d.toString();
    EXPECT_TRUE(report.clean());
}

TEST(Analyze, FixtureTripsEveryRuleFamily)
{
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    EXPECT_FALSE(report.clean());
    for (const char *rule :
         {"LAYER-001", "LAYER-002", "LAYER-003", "DET-001", "DET-002",
          "DET-003", "CMD-W1", "CMD-W2", "TRACE-001", "TRACE-002",
          "TEL-001", "ANALYZE-001"})
        EXPECT_TRUE(report.hasRule(rule)) << rule;
}

TEST(Analyze, SuppressionSilencesAnnotatedLine)
{
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    // suppressed.h carries a rand() under an allow(DET-001): the rule
    // still fires elsewhere in the fixture, never in that file.
    EXPECT_TRUE(report.hasRule("DET-001"));
    for (const drc::Diagnostic &d : report.byRule("DET-001"))
        EXPECT_EQ(d.path.find("suppressed"), std::string::npos)
            << d.toString();
}

TEST(Analyze, StaleAllowIsAnError)
{
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    // stale_allow.h: one comment allow() over a line with nothing to
    // silence, and one inside a string literal, which is no
    // annotation at all. The used allow in suppressed.h stays quiet.
    const auto stale = report.byRule("ANALYZE-001");
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].severity, drc::Severity::Error);
    EXPECT_EQ(stale[0].path, "src/sim/stale_allow.h:9");
    EXPECT_NE(stale[0].message.find("DET-001"), std::string::npos);
}

TEST(Analyze, MissingRootReportsAnalyze000)
{
    const drc::DrcReport report =
        analysis::analyzeTree("/nonexistent/harmonia-tree");
    EXPECT_TRUE(report.hasRule("ANALYZE-000"));
    EXPECT_FALSE(report.clean());
}

TEST(Analyze, RuleFamiliesAreListed)
{
    EXPECT_GE(analysis::ruleFamilies().size(), 4u);
}

} // namespace
} // namespace harmonia
