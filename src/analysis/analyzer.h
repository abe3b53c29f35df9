/**
 * @file
 * The codebase-invariant analyzer (harmonia-analyze). Where src/drc
 * lints what a Shell *composition* may do, this subsystem lints what
 * the *source tree* may do: the layer DAG, determinism and hot-path
 * purity, wire-protocol completeness and trace/telemetry hygiene —
 * the unchecked contracts the parallel engine and the byte-identical
 * determinism guarantee rest on. Findings reuse the DRC Diagnostic /
 * DrcReport machinery and renderers; `// harmonia-lint: allow(<rule>)`
 * on the offending line (or the line above) suppresses a finding, and
 * an annotation that suppresses nothing is itself an Error
 * (ANALYZE-001), so stale ones cannot pile up.
 */

#ifndef HARMONIA_ANALYSIS_ANALYZER_H_
#define HARMONIA_ANALYSIS_ANALYZER_H_

#include <set>
#include <string>
#include <vector>

#include "analysis/corpus.h"
#include "drc/diagnostic.h"

namespace harmonia {
namespace analysis {

/**
 * Collects findings, applying per-line suppressions before they reach
 * the report. Rule code hands every candidate finding here.
 */
class Reporter {
  public:
    explicit Reporter(drc::DrcReport *report) : report_(report) {}

    /**
     * Report @p rule at @p file:@p line unless an allow(<rule>)
     * annotation covers that line. Returns true when the finding was
     * recorded (i.e. not suppressed).
     */
    bool emit(const SourceFile &file, int line,
              const std::string &rule, drc::Severity severity,
              const std::string &message,
              const std::string &hint = "");

    /** ANALYZE-001: report every allow() in @p corpus that silenced
     *  no finding so far. Run after every rule family. */
    void reportStaleAllows(const Corpus &corpus);

  private:
    drc::DrcReport *report_;
    /** (file path, index into its allows) that silenced a finding. */
    std::set<std::pair<std::string, int>> used_;
};

/** One static rule family (mirrors drc::Rule, but corpus-scoped). */
struct RuleFamilyInfo {
    const char *id;           ///< rule id prefix, e.g. "LAYER"
    const char *description;
};

/** The rule families analyze() runs, for --list-rules and docs. */
std::vector<RuleFamilyInfo> ruleFamilies();

// Rule family entry points (one translation unit each).
void checkLayerRules(const Corpus &corpus, Reporter &out);
void checkDeterminismRules(const Corpus &corpus, Reporter &out);
void checkWireProtocolRules(const Corpus &corpus, Reporter &out);
void checkTraceTelemetryRules(const Corpus &corpus, Reporter &out);

/** Run every rule family over @p corpus. */
drc::DrcReport analyze(const Corpus &corpus);

/** Convenience: load @p root and analyze. Reports a fatal Error
 *  diagnostic (rule "ANALYZE-000") when root/src cannot be read. */
drc::DrcReport analyzeTree(const std::string &root);

} // namespace analysis
} // namespace harmonia

#endif // HARMONIA_ANALYSIS_ANALYZER_H_
