#include "analysis/source_file.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace harmonia {
namespace analysis {

namespace {

/** Lexer state carried across lines. */
enum class LexState { Code, BlockComment, String, Char };

/**
 * Blank one line into the two stripped views, advancing @p state.
 * Removed characters become spaces so columns survive.
 */
void
stripLine(const std::string &line, LexState &state,
          std::string *no_comment, std::string *code)
{
    no_comment->assign(line.size(), ' ');
    code->assign(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        const char next = i + 1 < line.size() ? line[i + 1] : '\0';
        switch (state) {
          case LexState::Code:
            if (c == '/' && next == '/') {
                return;  // rest of the line is a comment
            } else if (c == '/' && next == '*') {
                state = LexState::BlockComment;
                ++i;
            } else if (c == '"') {
                (*no_comment)[i] = c;
                (*code)[i] = c;
                state = LexState::String;
            } else if (c == '\'') {
                (*no_comment)[i] = c;
                (*code)[i] = c;
                state = LexState::Char;
            } else {
                (*no_comment)[i] = c;
                (*code)[i] = c;
            }
            break;
          case LexState::BlockComment:
            if (c == '*' && next == '/') {
                state = LexState::Code;
                ++i;
            }
            break;
          case LexState::String:
            (*no_comment)[i] = c;
            if (c == '\\' && next != '\0') {
                (*no_comment)[i + 1] = next;
                ++i;
            } else if (c == '"') {
                (*code)[i] = c;
                state = LexState::Code;
            }
            break;
          case LexState::Char:
            (*no_comment)[i] = c;
            if (c == '\\' && next != '\0') {
                (*no_comment)[i + 1] = next;
                ++i;
            } else if (c == '\'') {
                (*code)[i] = c;
                state = LexState::Code;
            }
            break;
        }
    }
    // An unterminated string at end of line is not valid C++; recover
    // to Code so one bad line cannot blank the rest of the file.
    if (state == LexState::String || state == LexState::Char)
        state = LexState::Code;
}

/**
 * Collect allow(<rule>[, <rule>...]) suppressions on one raw line. The
 * marker must sit in a comment (blanked in @p no_comment): one inside
 * a string literal is code, not an annotation.
 */
void
collectAllows(const std::string &raw, const std::string &no_comment,
              int line_no, std::vector<std::pair<int, std::string>> *out)
{
    static const std::string kMarker = "harmonia-lint:";
    std::size_t at = raw.find(kMarker);
    while (at != std::string::npos && no_comment[at] != ' ')
        at = raw.find(kMarker, at + 1);
    if (at == std::string::npos)
        return;
    at = raw.find("allow(", at);
    if (at == std::string::npos)
        return;
    const std::size_t close = raw.find(')', at);
    if (close == std::string::npos)
        return;
    std::string list = raw.substr(at + 6, close - at - 6);
    std::string rule;
    std::istringstream split(list);
    while (std::getline(split, rule, ',')) {
        std::size_t b = rule.find_first_not_of(" \t");
        std::size_t e = rule.find_last_not_of(" \t");
        if (b == std::string::npos)
            continue;
        rule = rule.substr(b, e - b + 1);
        // Only rule ids like DET-001; prose quoting the syntax, as in
        // "allow(<rule>)", annotates nothing.
        if (std::isupper(static_cast<unsigned char>(rule[0])) &&
            rule.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                   "0123456789-") == std::string::npos)
            out->emplace_back(line_no, rule);
    }
}

} // namespace

std::string
SourceFile::layerDir() const
{
    if (path.rfind("src/", 0) != 0)
        return "";
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

std::string
SourceFile::companionPath() const
{
    if (path.size() > 3 && path.rfind(".cc") == path.size() - 3)
        return path.substr(0, path.size() - 3) + ".h";
    if (path.size() > 2 && path.rfind(".h") == path.size() - 2)
        return path.substr(0, path.size() - 2) + ".cc";
    return "";
}

int
SourceFile::suppressedBy(int line, const std::string &rule) const
{
    // The annotated line's own allow first, so two annotated lines in
    // a row each use their own.
    for (const int at : {line, line - 1})
        for (std::size_t i = 0; i < allows.size(); ++i)
            if (allows[i].first == at && allows[i].second == rule)
                return static_cast<int>(i);
    return -1;
}

bool
loadSourceFile(const std::string &abs_path,
               const std::string &rel_path, SourceFile *out)
{
    std::ifstream in(abs_path);
    if (!in)
        return false;
    out->path = rel_path;
    out->raw.clear();
    out->noComment.clear();
    out->code.clear();
    out->includes.clear();
    out->allows.clear();

    LexState state = LexState::Code;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        ++line_no;
        std::string no_comment, code;
        stripLine(line, state, &no_comment, &code);
        collectAllows(line, no_comment, line_no, &out->allows);
        // #include "x/y.h": the target lives in a string literal, so
        // read it from the comment-stripped view.
        std::size_t at = no_comment.find("#include");
        if (at != std::string::npos) {
            const std::size_t open = no_comment.find('"', at);
            if (open != std::string::npos) {
                const std::size_t close =
                    no_comment.find('"', open + 1);
                if (close != std::string::npos)
                    out->includes.push_back(
                        {line_no, no_comment.substr(
                                      open + 1, close - open - 1)});
            }
        }
        out->raw.push_back(std::move(line));
        out->noComment.push_back(std::move(no_comment));
        out->code.push_back(std::move(code));
    }
    return true;
}

} // namespace analysis
} // namespace harmonia
