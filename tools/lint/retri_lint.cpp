// retri_lint: scans src/, bench/, tests/, and examples/ for violations of
// the repo's determinism and hygiene invariants (see rules.cpp for the
// table) and reports them as `file:line: [rule] message` diagnostics.
// Three engines run behind one rule table (DESIGN.md §5h): line regexes,
// the token engine (tokenizer.hpp), and the include-graph analyzer
// (graph.hpp).
//
//   retri_lint --root /path/to/repo            # scan, exit 1 on violations
//   retri_lint --list-rules                    # print the rule table
//   retri_lint --explain RULE                  # one rule, full rationale
//   retri_lint --graph check                   # graph rules only
//   retri_lint --graph dot                     # DOT of the module graph
//   retri_lint --root R path/under/R.cpp ...   # restrict to given files
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error. Wired into
// tier-1 as the `lint_tree` ctest (all engines), `lint_graph` (--graph
// check) and `lint_graph_dot` (--graph dot against docs/include-graph.dot).
// Graph rules need the whole tree, so they run on full scans and under
// --graph, never on explicit file lists.
//
// This is a CLI: it owns its stdout/stderr, so direct printf is fine here
// (and tools/ is outside the scanned set anyway).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;
namespace lint = retri::lint;

namespace {

struct Options {
  std::string root = ".";
  std::string explain_rule;
  std::string graph_mode;  // "", "check", or "dot"
  std::vector<std::string> files;  // explicit repo-relative files; empty = tree
  bool list_rules = false;
  bool quiet = false;
};

constexpr const char* kScanDirs[] = {"src", "bench", "tests", "examples"};
constexpr const char* kExtensions[] = {".cpp", ".hpp", ".h", ".cc", ".cxx"};

bool has_scanned_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  for (const char* want : kExtensions) {
    if (ext == want) return true;
  }
  return false;
}

int usage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: retri_lint [--root DIR] [--list-rules]\n"
               "                  [--explain RULE] [--graph check|dot]\n"
               "                  [--quiet] [FILE...]\n"
               "scans src/ bench/ tests/ examples/ under DIR (default .)\n"
               "exit: 0 clean, 1 violations, 2 usage/IO error\n");
  return 2;
}

bool parse_options(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(opts.root)) return false;
    } else if (arg == "--explain") {
      if (!value(opts.explain_rule)) return false;
    } else if (arg == "--graph") {
      if (!value(opts.graph_mode)) return false;
      if (opts.graph_mode != "check" && opts.graph_mode != "dot") {
        std::fprintf(stderr, "--graph wants 'check' or 'dot', got '%s'\n",
                     opts.graph_mode.c_str());
        return false;
      }
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      opts.files.push_back(arg);
    }
  }
  return true;
}

const char* kind_label(lint::RuleKind kind) {
  switch (kind) {
    case lint::RuleKind::kBannedPattern: return "[banned]";
    case lint::RuleKind::kRequiredPattern: return "[required]";
    case lint::RuleKind::kBannedTokens: return "[banned]";
    case lint::RuleKind::kTokenCheck: return "[check]";
    case lint::RuleKind::kGraphCheck: return "[check]";
  }
  return "[?]";
}

void print_rule(const lint::Rule& rule, bool full) {
  std::printf("%-26s %-6.*s %s\n", rule.id.c_str(),
              static_cast<int>(lint::engine_name(rule.kind).size()),
              lint::engine_name(rule.kind).data(), kind_label(rule.kind));
  if (!rule.pattern.empty()) {
    std::printf("  pattern: %s\n", rule.pattern.c_str());
  }
  if (!rule.scope_prefixes.empty()) {
    std::printf("  scoped to:");
    for (const std::string& p : rule.scope_prefixes) {
      std::printf(" %s", p.c_str());
    }
    std::printf("\n");
  }
  if (!rule.allowed_prefixes.empty()) {
    std::printf("  allowed under:");
    for (const std::string& p : rule.allowed_prefixes) {
      std::printf(" %s", p.c_str());
    }
    std::printf("\n");
  }
  if (!rule.extensions.empty()) {
    std::printf("  applies to:");
    for (const std::string& e : rule.extensions) std::printf(" %s", e.c_str());
    std::printf("\n");
  }
  std::printf("  %s\n", rule.message.c_str());
  if (full) {
    std::printf("  escape: // retri-lint: allow(%s) on the offending line\n",
                rule.id.c_str());
  }
  std::printf("\n");
}

int list_rules() {
  std::printf("%-26s %-6s %s\n", "rule", "engine", "kind");
  for (const lint::Rule& rule : lint::default_rules()) print_rule(rule, false);
  return 0;
}

int explain_rule(const std::string& id) {
  for (const lint::Rule& rule : lint::default_rules()) {
    if (rule.id == id) {
      print_rule(rule, true);
      return 0;
    }
  }
  std::fprintf(stderr, "retri_lint: no rule named '%s'; known rules:\n",
               id.c_str());
  for (const lint::Rule& rule : lint::default_rules()) {
    std::fprintf(stderr, "  %s\n", rule.id.c_str());
  }
  return 2;
}

/// Collects repo-relative paths (forward slashes) of every scannable file.
std::vector<std::string> discover_files(const fs::path& root, std::string& error) {
  std::vector<std::string> files;
  for (const char* dir : kScanDirs) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        error = "walking " + base.string() + ": " + ec.message();
        return {};
      }
      if (!it->is_regular_file() || !has_scanned_extension(it->path())) continue;
      files.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_file(const fs::path& path, std::string& contents, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read " + path.string();
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  contents = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_options(argc, argv, opts)) return usage(stderr);
  if (opts.list_rules) return list_rules();
  if (!opts.explain_rule.empty()) return explain_rule(opts.explain_rule);

  const fs::path root(opts.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "retri_lint: root is not a directory: %s\n",
                 opts.root.c_str());
    return 2;
  }

  const bool explicit_files = !opts.files.empty();
  const bool graph_only = opts.graph_mode == "check";
  const bool graph_dot_mode = opts.graph_mode == "dot";
  if (explicit_files && (graph_only || graph_dot_mode)) {
    std::fprintf(stderr,
                 "retri_lint: --graph needs the whole tree; drop the "
                 "explicit FILE arguments\n");
    return 2;
  }

  std::string error;
  std::vector<std::string> files = opts.files;
  if (files.empty()) {
    files = discover_files(root, error);
    if (!error.empty()) {
      std::fprintf(stderr, "retri_lint: %s\n", error.c_str());
      return 2;
    }
  }

  std::vector<lint::Violation> violations;
  std::vector<lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& rel : files) {
    std::string contents;
    if (!read_file(root / rel, contents, error)) {
      std::fprintf(stderr, "retri_lint: %s\n", error.c_str());
      return 2;
    }
    if (!graph_only && !graph_dot_mode) {
      auto found = lint::scan_file(rel, contents, lint::default_rules());
      violations.insert(violations.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    }
    sources.push_back(lint::SourceFile{rel, std::move(contents)});
  }

  if (graph_dot_mode) {
    const lint::LayerSpec spec = [&] {
      for (const lint::Rule& rule : lint::default_rules()) {
        if (rule.kind == lint::RuleKind::kGraphCheck) {
          return lint::LayerSpec::parse(rule.pattern);
        }
      }
      return lint::LayerSpec{};
    }();
    std::fputs(lint::graph_dot(sources, spec).c_str(), stdout);
    return 0;
  }

  // Graph rules need every file at once; explicit-file invocations skip
  // them (a partial tree would report phantom cycles/edges).
  if (!explicit_files) {
    auto found = lint::check_graph(sources, lint::default_rules());
    violations.insert(violations.end(),
                      std::make_move_iterator(found.begin()),
                      std::make_move_iterator(found.end()));
  }

  for (const lint::Violation& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule_id.c_str(),
                v.message.c_str());
    if (!v.excerpt.empty() && !opts.quiet) {
      std::printf("    %s\n", v.excerpt.c_str());
    }
  }
  if (!violations.empty()) {
    std::printf("%zu violation%s in %zu file%s scanned\n", violations.size(),
                violations.size() == 1 ? "" : "s", files.size(),
                files.size() == 1 ? "" : "s");
    return 1;
  }
  if (!opts.quiet) {
    std::printf("retri_lint: %zu files clean (%zu rules)\n", files.size(),
                lint::default_rules().size());
  }
  return 0;
}
