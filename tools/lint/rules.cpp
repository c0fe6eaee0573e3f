#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <regex>

namespace retri::lint {
namespace {

// Rule-table notes:
//  - Patterns live here, inside tools/, which the scanner never visits, so
//    the table cannot flag itself.
//  - The determinism rules use the token engine: `std :: rand`,
//    `std\<newline>::rand`, and `using std::rand` all produce the same
//    token sequence, so spelling games cannot dodge them. Exact token
//    text keeps short names honest: identifier `operand` is not `rand`.
//  - `snprintf` stays legal everywhere: it formats into a caller-owned
//    buffer instead of emitting output, which is the thing the io rule
//    polices.
//  - The graph rules carry the declared module layer order in their
//    pattern — the architecture is data here, not code in graph.cpp. The
//    order reflects the real dependency structure (DESIGN.md §5h): obs is
//    a low-level service consumed by core/sim/aff/fault, and apps sit
//    below the fault/runner harness layers that drive them.
std::vector<Rule> make_default_rules() {
  std::vector<Rule> rules;

  rules.push_back(Rule{
      "no-unseeded-rand",
      RuleKind::kBannedTokens,
      "std :: rand | srand ( | rand (",
      {"src/util/"},
      {},
      "unseeded C randomness breaks trial reproducibility; draw from a "
      "util::Xoshiro256 seeded via runner::derive_trial_seed",
      {}});

  rules.push_back(Rule{
      "no-random-device",
      RuleKind::kBannedTokens,
      "std :: random_device | random_device",
      {"src/util/"},
      {},
      "hardware entropy makes trials unreproducible; seeds must come from "
      "the experiment config (runner::derive_trial_seed)",
      {}});

  rules.push_back(Rule{
      "no-wall-clock",
      RuleKind::kBannedTokens,
      "*_clock :: now | time (",
      {},
      {},
      "wall-clock reads make results depend on host timing; simulated time "
      "flows through sim::TimePoint and sim::Duration (src/util/time.hpp)",
      {}});

  rules.push_back(Rule{
      "no-raw-thread",
      RuleKind::kBannedTokens,
      "std :: thread | std :: jthread | std :: async | . detach ( | "
      "-> detach (",
      {"src/runner/"},
      {},
      "raw threading outside src/runner voids the deterministic-sharding "
      "guarantee; shard work with runner::parallel_for",
      {}});

  rules.push_back(Rule{
      "no-global-mutable-state",
      RuleKind::kTokenCheck,
      "",
      {},
      {},
      "namespace-scope mutable state breaks trial isolation the moment a "
      "trial shards across workers; make it const/constexpr, pass it "
      "through the trial's context, or escape with retri-lint: "
      "allow(no-global-mutable-state) + a rationale",
      {"src/"}});

  rules.push_back(Rule{
      "no-float-eq",
      RuleKind::kTokenCheck,
      "",
      {},
      {},
      "exact ==/!= on floating-point values is order-of-evaluation bait "
      "once trials shard; compare against an epsilon, compare integer "
      "nanoseconds, or escape with retri-lint: allow(no-float-eq) where "
      "bit-exactness is the contract",
      {"src/sim/", "src/stats/", "src/radio/"}});

  rules.push_back(Rule{
      "config-has-validated",
      RuleKind::kTokenCheck,
      "",
      {},
      {},
      "every *Config struct declares validated() (member or the free "
      "`XConfig validated(XConfig)` idiom, util/validate.hpp) so invalid "
      "configs throw at construction instead of skewing results",
      {"src/"}});

  rules.push_back(Rule{
      "no-raw-selector-policy",
      RuleKind::kTokenCheck,
      "",
      {"src/core/selector.cpp", "src/obs/metrics.cpp"},
      {},
      "selector-policy names are spelled exactly once, in the registry TU "
      "(core::to_string / parse_selector_spec); build a core::SelectorSpec "
      "with the spec builders or parse a CLI string through "
      "parse_selector_spec instead of hard-coding the name",
      {"src/", "bench/"}});

  rules.push_back(Rule{
      "header-pragma-once",
      RuleKind::kRequiredPattern,
      R"(#pragma once|#ifndef\s+\w+)",
      {},
      {".hpp", ".h"},
      "header lacks #pragma once (or a classic include guard)",
      {}});

  rules.push_back(Rule{
      "no-using-namespace-header",
      RuleKind::kBannedPattern,
      R"(^\s*using\s+namespace\b)",
      {},
      {".hpp", ".h"},
      "using-namespace in a header leaks into every includer; qualify names "
      "or alias them inside a function",
      {}});

  rules.push_back(Rule{
      "no-shared-ptr-hot",
      RuleKind::kBannedPattern,
      R"(\bstd::make_shared\b|\bstd::shared_ptr\b)",
      {},
      {},
      "shared_ptr refcounting allocates and takes locked atomics; src/ "
      "has one lifetime rule instead: a component cancels the "
      "sim::EventHandle of each timer it schedules and clears each callback "
      "it installs in its destructor (DESIGN.md §5e), and payloads use "
      "pooled records or intrusive single-threaded counts "
      "(util::SharedBytes) — escape with retri-lint: "
      "allow(no-shared-ptr-hot) where ownership is genuinely shared",
      {"src/"}});

  rules.push_back(Rule{
      "no-priority-queue-sim",
      RuleKind::kBannedPattern,
      R"(\bstd::priority_queue\b)",
      {},
      {},
      "the event core runs on a 4-ary heap (sim/engine.hpp, DESIGN.md "
      "§5j); a binary std::priority_queue under src/sim measured slower "
      "per event — tests may still use it as a differential oracle",
      {"src/sim/"}});

  rules.push_back(Rule{
      "no-adhoc-counter",
      RuleKind::kBannedPattern,
      R"(\bstd::uint64_t\s+\w*_count\w*\s*[={;\[])",
      {"src/obs/"},
      {},
      "ad-hoc uint64 counter members bypass the obs layer (snapshots, "
      "compile-out, jobs-invariant aggregation); register an obs::Counter "
      "on the trial's MetricsRegistry — escape with retri-lint: "
      "allow(no-adhoc-counter) for genuine non-metric state",
      {"src/"}});

  rules.push_back(Rule{
      "no-direct-io",
      RuleKind::kBannedPattern,
      R"(\bstd::cout\b|\bstd::cerr\b|\bstd::clog\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\(|\bfputs\s*\()",
      // CLIs own their stdout/stderr; no library file touches them.
      {"bench/", "examples/"},
      {},
      "library/test code must not print: report through return values, "
      "callbacks or obs metrics, and leave stdout/stderr to the CLIs",
      {}});

  rules.push_back(Rule{
      "no-bare-ofstream-store",
      RuleKind::kBannedPattern,
      R"(\bstd::ofstream\b|\bfopen\s*\(|::open\s*\()",
      {},
      {},
      "persistent writes under src/runner must go through "
      "runner::atomic_write_file (temp + fsync + rename) so a crash can "
      "tear only a *.tmp, never a live memo entry; the atomic writer itself "
      "carries the only retri-lint: allow(no-bare-ofstream-store) anchors",
      {"src/runner/"}});

  // The declared layer order: `a < b` means b may include a, never the
  // reverse. Both graph rules share it so the cycle checker knows the
  // module universe.
  const std::string layer_order =
      "util < obs < core < sim < radio < aff < net < apps < stats < "
      "fault < runner";

  rules.push_back(Rule{
      "layer-order",
      RuleKind::kGraphCheck,
      layer_order,
      {},
      {},
      "a module may only include modules declared below it; an upward "
      "include couples a foundation layer to its consumers and is how "
      "hidden state sneaks across the trial boundary",
      {"src/"}});

  rules.push_back(Rule{
      "include-cycle",
      RuleKind::kGraphCheck,
      layer_order,
      {},
      {},
      "module include cycles make layers unbuildable and untestable in "
      "isolation; break the cycle by hoisting the shared type downward",
      {"src/"}});

  return rules;
}

bool has_prefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view engine_name(RuleKind kind) {
  switch (kind) {
    case RuleKind::kBannedPattern:
    case RuleKind::kRequiredPattern:
      return "line";
    case RuleKind::kBannedTokens:
    case RuleKind::kTokenCheck:
      return "token";
    case RuleKind::kGraphCheck:
      return "graph";
  }
  return "?";
}

const std::vector<Rule>& default_rules() {
  static const std::vector<Rule> rules = make_default_rules();
  return rules;
}

bool rule_applies(const Rule& rule, std::string_view rel_path) {
  if (!rule.extensions.empty()) {
    const auto dot = rel_path.rfind('.');
    const std::string_view ext =
        dot == std::string_view::npos ? std::string_view{} : rel_path.substr(dot);
    if (std::find(rule.extensions.begin(), rule.extensions.end(), ext) ==
        rule.extensions.end()) {
      return false;
    }
  }
  if (!rule.scope_prefixes.empty()) {
    const bool in_scope =
        std::any_of(rule.scope_prefixes.begin(), rule.scope_prefixes.end(),
                    [rel_path](const std::string& prefix) {
                      return has_prefix(rel_path, prefix);
                    });
    if (!in_scope) return false;
  }
  for (const std::string& prefix : rule.allowed_prefixes) {
    if (has_prefix(rel_path, prefix)) return false;
  }
  return true;
}

bool line_allows(std::string_view line, std::string_view rule_id) {
  static constexpr std::string_view kMarker = "retri-lint: allow(";
  const auto marker = line.find(kMarker);
  if (marker == std::string_view::npos) return false;
  const auto open = marker + kMarker.size();
  const auto close = line.find(')', open);
  if (close == std::string_view::npos) return false;
  // Comma/space separated rule ids inside the parentheses.
  std::string_view inside = line.substr(open, close - open);
  while (!inside.empty()) {
    const auto comma = inside.find(',');
    std::string_view token = trim(inside.substr(0, comma));
    if (token == rule_id || token == "*") return true;
    if (comma == std::string_view::npos) break;
    inside.remove_prefix(comma + 1);
  }
  return false;
}

std::string strip_comments(std::string_view contents) {
  // Built on the tokenizer: everything it classifies as a comment or a
  // string/char literal is blanked byte-for-byte (newlines kept so line
  // numbers survive). The predecessor of this function was a hand-rolled
  // state machine that misread digit separators (1'000'000) as char
  // literals and could blank real code after them — the tokenizer knows
  // the difference.
  std::string out(contents);
  for (const Token& tok : tokenize(contents)) {
    if (tok.kind != TokKind::kComment && tok.kind != TokKind::kString &&
        tok.kind != TokKind::kChar) {
      continue;
    }
    for (std::size_t i = tok.begin; i < tok.end && i < out.size(); ++i) {
      if (out[i] != '\n') out[i] = ' ';
    }
  }
  return out;
}

std::vector<Violation> scan_file(std::string_view rel_path,
                                 std::string_view contents,
                                 const std::vector<Rule>& rules) {
  std::vector<Violation> violations;

  std::vector<const Rule*> active;
  for (const Rule& rule : rules) {
    if (rule_applies(rule, rel_path)) active.push_back(&rule);
  }
  if (active.empty()) return violations;

  const std::string stripped = strip_comments(contents);

  // Split both the original (for escapes + excerpts) and the stripped copy
  // (for matching) into lines; strip_comments preserves line structure.
  std::vector<std::string_view> raw_lines, code_lines;
  for (std::string_view rest : {contents}) {
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      raw_lines.push_back(rest.substr(0, nl));
      if (nl == std::string_view::npos) break;
      rest.remove_prefix(nl + 1);
    }
  }
  for (std::string_view rest = stripped; !rest.empty();) {
    const auto nl = rest.find('\n');
    code_lines.push_back(rest.substr(0, nl));
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }

  // Token-engine rules share one tokenize() per file.
  std::vector<Token> tokens;
  bool tokenized = false;
  auto ensure_tokens = [&] {
    if (!tokenized) {
      tokens = tokenize(contents);
      tokenized = true;
    }
  };

  for (const Rule* rule : active) {
    if (rule->kind == RuleKind::kGraphCheck) continue;  // whole-tree pass
    if (rule->kind == RuleKind::kTokenCheck) {
      ensure_tokens();
      auto found = run_token_check(rel_path, contents, tokens, *rule);
      violations.insert(violations.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
      continue;
    }
    if (rule->kind == RuleKind::kBannedTokens) {
      ensure_tokens();
      const std::vector<Token> code = code_tokens(tokens);
      for (const std::size_t line : match_token_sequences(code, rule->pattern)) {
        if (line - 1 < raw_lines.size() &&
            line_allows(raw_lines[line - 1], rule->id)) {
          continue;
        }
        violations.push_back(Violation{
            std::string(rel_path), line, rule->id, rule->message,
            line - 1 < raw_lines.size() ? std::string(trim(raw_lines[line - 1]))
                                        : std::string()});
      }
      continue;
    }
    const std::regex re(rule->pattern, std::regex::ECMAScript);
    if (rule->kind == RuleKind::kRequiredPattern) {
      if (std::regex_search(stripped.begin(), stripped.end(), re)) continue;
      bool excused = false;
      for (const std::string_view line : raw_lines) {
        if (line_allows(line, rule->id)) { excused = true; break; }
      }
      if (!excused) {
        violations.push_back(
            Violation{std::string(rel_path), 1, rule->id, rule->message, ""});
      }
      continue;
    }
    for (std::size_t n = 0; n < code_lines.size(); ++n) {
      const std::string_view code = code_lines[n];
      if (!std::regex_search(code.begin(), code.end(), re)) continue;
      if (line_allows(raw_lines[n], rule->id)) continue;
      violations.push_back(Violation{std::string(rel_path), n + 1, rule->id,
                                     rule->message,
                                     std::string(trim(raw_lines[n]))});
    }
  }

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule_id < b.rule_id;
            });
  return violations;
}

}  // namespace retri::lint
