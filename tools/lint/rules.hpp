// retri_lint rule engine.
//
// The runner's bit-identical-results guarantee (DESIGN.md §5b) rests on
// conventions the compiler cannot check: every source of randomness flows
// through the seeded generators in src/util/random.hpp, every thread is
// started by runner::parallel_for, and — once trials shard internally — no
// state hides at namespace scope and no module reaches up the layer stack.
// This engine turns those conventions into machine-checked invariants:
// rules are data (pattern, scope allowlist, message), the scanner reports
// file:line diagnostics, and tier-1 ctest runs the whole tree through it
// (see tools/lint/retri_lint.cpp and the lint_tree/lint_graph tests).
//
// Three engines share the Rule/Violation/escape machinery
// (DESIGN.md §5h):
//   line   — regex over comment-stripped lines; right when the banned
//            construct is one spelling at every call site (std::cout, ...).
//   token  — walks the tokenizer.hpp stream; right when spelling varies
//            (`std :: rand`, `using std::rand`) or the rule is about
//            structure (namespace-scope state, float ==, struct contracts).
//   graph  — whole-tree include-graph analysis (graph.hpp): layer order
//            and cycle detection; the declared order lives in the rule's
//            pattern, so the architecture is itself rules-as-data.
//
// Escapes are explicit and visible in review: `// retri-lint:
// allow(<rule>)` on the offending line (or anywhere in the file for
// file-level rules; on the struct line for config-has-validated; on the
// reported #include line for graph rules).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizer.hpp"

namespace retri::lint {

enum class RuleKind {
  kBannedPattern,    // line: pattern must not appear on any stripped line
  kRequiredPattern,  // line: pattern must appear somewhere in the file
  kBannedTokens,     // token: pattern = `|`-separated token sequences
  kTokenCheck,       // token: semantic check dispatched on the rule id
  kGraphCheck,       // graph: whole-tree check dispatched on the rule id
};

/// Which engine evaluates a rule of this kind ("line", "token", "graph") —
/// the engine column in --list-rules.
std::string_view engine_name(RuleKind kind);

/// One invariant. Rules are plain data so the table in default_rules() reads
/// like a policy document and tests can build ad-hoc rule sets.
struct Rule {
  std::string id;       // stable slug used in diagnostics and escapes
  RuleKind kind = RuleKind::kBannedPattern;
  std::string pattern;  // ECMAScript regex (case-sensitive)
  // Repo-relative path prefixes (forward slashes) where this rule does NOT
  // apply. Empty = applies everywhere scanned.
  std::vector<std::string> allowed_prefixes;
  // File extensions the rule applies to (with dot). Empty = all scanned
  // extensions.
  std::vector<std::string> extensions;
  std::string message;  // one-line rationale shown with each diagnostic
  // Repo-relative path prefixes the rule ONLY applies under. Empty = applies
  // everywhere not excluded. Deliberately last so the existing positional
  // aggregate initializers (which stop at `message`) stay valid.
  std::vector<std::string> scope_prefixes;
};

struct Violation {
  std::string file;     // repo-relative path, forward slashes
  std::size_t line = 0; // 1-based; for kRequiredPattern rules this is 1
  std::string rule_id;
  std::string message;
  std::string excerpt;  // offending source line, trimmed (empty for
                        // kRequiredPattern)
};

/// The repo's invariant table. Order is the reporting order.
const std::vector<Rule>& default_rules();

/// True when `rule` applies to `rel_path` (extension matches, the path is
/// under a scope prefix if the rule declares any, and not under any allowed
/// prefix).
bool rule_applies(const Rule& rule, std::string_view rel_path);

/// True when `line` carries an inline escape for `rule_id`:
///   // retri-lint: allow(rule-a, rule-b)
bool line_allows(std::string_view line, std::string_view rule_id);

/// Returns a copy of `contents` with comments and string/char literals
/// blanked, newlines preserved. Doc comments naming banned constructs and
/// test fixtures quoting them must not trip the scanner — the invariants
/// are about executable code. Built on the tokenizer, so raw strings with
/// custom delimiters, digit separators (1'000'000 is not a char literal),
/// and line-continued comments are all handled; preprocessor directives
/// keep their bytes (the required-pattern rules look for `#pragma once`).
/// Inline allow() escapes are parsed from the raw line, not this stripped
/// copy. Exposed for tests.
std::string strip_comments(std::string_view contents);

/// Runs one kBannedTokens rule over a token stream. The pattern grammar:
/// alternatives separated by `|`; each alternative is a whitespace-
/// separated sequence of token spellings matched exactly against
/// consecutive code tokens, except that a leading `*` means "identifier
/// ending with this suffix" (`*_clock`). Returns the 1-based lines with a
/// match, deduplicated. Exposed for tests.
std::vector<std::size_t> match_token_sequences(const std::vector<Token>& code,
                                               std::string_view pattern);

/// Runs one kTokenCheck rule (dispatched on rule.id) over a file's token
/// stream. Exposed for tests; scan_file calls it for every active token
/// rule.
std::vector<Violation> run_token_check(std::string_view rel_path,
                                       std::string_view contents,
                                       const std::vector<Token>& tokens,
                                       const Rule& rule);

/// Scans one file's contents against `rules`, honouring inline escapes.
/// `rel_path` must be repo-relative with forward slashes.
std::vector<Violation> scan_file(std::string_view rel_path,
                                 std::string_view contents,
                                 const std::vector<Rule>& rules);

}  // namespace retri::lint
