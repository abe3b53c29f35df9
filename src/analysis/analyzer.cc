#include "analysis/analyzer.h"

#include "common/logging.h"

namespace harmonia {
namespace analysis {

bool
Reporter::emit(const SourceFile &file, int line,
               const std::string &rule, drc::Severity severity,
               const std::string &message, const std::string &hint)
{
    const int allow = file.suppressedBy(line, rule);
    if (allow >= 0) {
        used_.emplace(file.path, allow);
        return false;
    }
    report_->add({rule, severity, format("%s:%d", file.path.c_str(), line),
                  message, hint});
    return true;
}

void
Reporter::reportStaleAllows(const Corpus &corpus)
{
    for (const SourceFile &f : corpus.files())
        for (std::size_t i = 0; i < f.allows.size(); ++i)
            if (used_.count({f.path, static_cast<int>(i)}) == 0)
                report_->add(
                    {"ANALYZE-001", drc::Severity::Error,
                     format("%s:%d", f.path.c_str(), f.allows[i].first),
                     format("allow(%s) suppresses no finding",
                            f.allows[i].second.c_str()),
                     "delete the stale annotation"});
}

std::vector<RuleFamilyInfo>
ruleFamilies()
{
    return {
        {"LAYER", "layer DAG: include-graph cycles, upward includes "
                  "against the declared layer manifest, unknown "
                  "layers"},
        {"DET", "determinism: no RNG/wall-clock calls anywhere in "
                "src/; no unordered-container iteration in ticked or "
                "command-path code"},
        {"HOT", "hot-path purity: no heap-allocation markers in the "
                "designated hot files"},
        {"CMD-W", "wire-protocol completeness: every kCmd* code has "
                  "toString coverage, a handler, fuzz-corpus coverage "
                  "and a DESIGN.md mention"},
        {"TRACE", "trace hygiene: beginSpan results must be kept so "
                  "the span can be ended; begin/end call sites must "
                  "pair up per file"},
        {"TEL", "telemetry hygiene: metric-name literals follow the "
                "snake_case/dotted convention"},
        {"ANALYZE", "analyzer hygiene: an allow(<rule>) annotation "
                    "that suppresses no finding is an error"},
    };
}

drc::DrcReport
analyze(const Corpus &corpus)
{
    drc::DrcReport report;
    Reporter out(&report);
    checkLayerRules(corpus, out);
    checkDeterminismRules(corpus, out);
    checkWireProtocolRules(corpus, out);
    checkTraceTelemetryRules(corpus, out);
    out.reportStaleAllows(corpus);
    return report;
}

drc::DrcReport
analyzeTree(const std::string &root)
{
    Corpus corpus;
    if (!corpus.load(root)) {
        drc::DrcReport report;
        report.add({"ANALYZE-000", drc::Severity::Error, root,
                    "no src/ directory under analysis root",
                    "pass --root pointing at a harmonia tree"});
        return report;
    }
    return analyze(corpus);
}

} // namespace analysis
} // namespace harmonia
