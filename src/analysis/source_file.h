/**
 * @file
 * One scanned source file for the codebase analyzer: raw lines, a
 * comment-stripped view, a comment-and-string-stripped view, the
 * project-relative #include list and `// harmonia-lint: allow(...)`
 * suppressions. The stripped views preserve line count and column
 * positions (removed characters become spaces) so every finding can
 * carry an exact file:line.
 */

#ifndef HARMONIA_ANALYSIS_SOURCE_FILE_H_
#define HARMONIA_ANALYSIS_SOURCE_FILE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace harmonia {
namespace analysis {

/** One #include "..." directive. */
struct IncludeDirective {
    int line = 0;            ///< 1-based line number
    std::string target;      ///< quoted path, e.g. "common/json.h"
};

/** A loaded and pre-lexed source file. */
struct SourceFile {
    std::string path;  ///< root-relative, '/'-separated, e.g.
                       ///< "src/sim/engine.cc"

    std::vector<std::string> raw;        ///< verbatim lines
    std::vector<std::string> noComment;  ///< comments blanked
    std::vector<std::string> code;       ///< comments + strings blanked

    std::vector<IncludeDirective> includes;

    /** allow(<rule>) suppressions found in comments, keyed by the
     *  1-based line they appear on. A suppression covers its own line
     *  and the next. */
    std::vector<std::pair<int, std::string>> allows;

    /** Top-level directory under src/ ("sim" for "src/sim/engine.cc");
     *  empty for files outside src/. */
    std::string layerDir() const;

    /** Companion path: .h for a .cc and vice versa ("" if neither). */
    std::string companionPath() const;

    /** Index into allows of the suppression covering a finding of
     *  @p rule on @p line (1-based); -1 when none does. */
    int suppressedBy(int line, const std::string &rule) const;
};

/**
 * Load and pre-lex @p abs_path, recording @p rel_path as the file's
 * project-relative identity. Returns false when the file cannot be
 * read.
 */
bool loadSourceFile(const std::string &abs_path,
                    const std::string &rel_path, SourceFile *out);

} // namespace analysis
} // namespace harmonia

#endif // HARMONIA_ANALYSIS_SOURCE_FILE_H_
