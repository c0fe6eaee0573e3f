// Unit tests for the retri_lint rule engine (tools/lint/rules.hpp):
// pattern matching, scope allowlists, inline allow() escapes,
// comment/string stripping, and the order of scan results.
//
// Fixture sources are built as plain strings; the engine blanks
// string-literal contents when scanning real files, so quoting banned
// constructs here cannot trip the tree-wide lint_tree test on this file.
#include "rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lint = retri::lint;

namespace {

const lint::Rule* find_rule(const std::string& id) {
  for (const lint::Rule& rule : lint::default_rules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

std::vector<lint::Violation> scan(const std::string& path,
                                  const std::string& contents) {
  return lint::scan_file(path, contents, lint::default_rules());
}

bool has_violation(const std::vector<lint::Violation>& vs,
                   const std::string& rule_id) {
  return std::any_of(vs.begin(), vs.end(), [&](const lint::Violation& v) {
    return v.rule_id == rule_id;
  });
}

// A minimal compliant header body, reused by fixtures that should be clean.
const char* const kCleanHeader = "#pragma once\nnamespace x { int f(); }\n";

TEST(LintRules, DefaultTableHasExpectedRules) {
  for (const char* id :
       {"no-unseeded-rand", "no-random-device", "no-wall-clock",
        "no-raw-thread", "header-pragma-once", "no-using-namespace-header",
        "no-shared-ptr-hot", "no-priority-queue-sim", "no-adhoc-counter",
        "no-direct-io",
        "no-global-mutable-state", "no-float-eq", "config-has-validated",
        "no-raw-selector-policy",
        "no-bare-ofstream-store", "layer-order", "include-cycle"}) {
    EXPECT_NE(find_rule(id), nullptr) << id;
  }
}

TEST(LintRules, EveryRuleKindMapsToAnEngineName) {
  EXPECT_EQ(lint::engine_name(lint::RuleKind::kBannedPattern), "line");
  EXPECT_EQ(lint::engine_name(lint::RuleKind::kRequiredPattern), "line");
  EXPECT_EQ(lint::engine_name(lint::RuleKind::kBannedTokens), "token");
  EXPECT_EQ(lint::engine_name(lint::RuleKind::kTokenCheck), "token");
  EXPECT_EQ(lint::engine_name(lint::RuleKind::kGraphCheck), "graph");
}

TEST(LintRules, FlagsStdRandWithFileAndLine) {
  const auto vs = scan("src/core/selector.cpp",
                       "#include <cstdlib>\n"
                       "int pick() {\n"
                       "  return std::rand();\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule_id, "no-unseeded-rand");
  EXPECT_EQ(vs[0].file, "src/core/selector.cpp");
  EXPECT_EQ(vs[0].line, 3u);
  EXPECT_NE(vs[0].excerpt.find("std::rand"), std::string::npos);
}

TEST(LintRules, FlagsArglessSrandAndCRand) {
  const auto vs = scan("src/sim/engine.cpp",
                       "void seed() { srand(42); }\n"
                       "int draw() { return rand(); }\n");
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_TRUE(has_violation(vs, "no-unseeded-rand"));
}

TEST(LintRules, DoesNotFlagIdentifiersContainingRand) {
  // `operand(...)` and `grand_total(...)` must not match the \brand\( arm.
  const auto vs = scan("src/core/model.cpp",
                       "int operand(int v);\n"
                       "int grand_total(int v) { return operand(v); }\n");
  EXPECT_FALSE(has_violation(vs, "no-unseeded-rand"));
}

TEST(LintRules, ScopeAllowlistExemptsUtilFromRandomnessRules) {
  const std::string body = "auto e = std::random_device{}();\n";
  EXPECT_TRUE(has_violation(scan("src/core/density.cpp", body),
                            "no-random-device"));
  EXPECT_FALSE(has_violation(scan("src/util/random.cpp", body),
                             "no-random-device"));
}

TEST(LintRules, FlagsWallClockReads) {
  // Locals, not globals: keep this fixture out of no-global-mutable-state
  // territory so the count isolates the wall-clock rule.
  const auto vs = scan(
      "src/runner/trial_runner.cpp",
      "void f() {\n"
      "  auto t0 = std::chrono::steady_clock::now();\n"
      "  auto t1 = std::chrono::high_resolution_clock::now();\n"
      "  long t2 = time(nullptr);\n"
      "}\n");
  EXPECT_EQ(vs.size(), 3u);
  EXPECT_TRUE(has_violation(vs, "no-wall-clock"));

  // No directory is exempt, src/util/ included.
  EXPECT_TRUE(has_violation(
      scan("src/util/timer.hpp",
           "inline auto now() { return std::chrono::steady_clock::now(); }\n"),
      "no-wall-clock"));
}

TEST(LintRules, WallClockDoesNotMatchSimulatedTimeNames) {
  const auto vs = scan("src/sim/engine.cpp",
                       "auto t = clock_.now();\n"
                       "auto d = config.send_time(3);\n");
  EXPECT_FALSE(has_violation(vs, "no-wall-clock"));
}

TEST(LintRules, RawThreadingBannedOutsideRunnerOnly) {
  const std::string body =
      "#include <thread>\n"
      "void go() { std::thread t([]{}); t.detach(); }\n"
      "void h() { auto f = std::async([]{ return 1; }); }\n";
  const auto outside = scan("src/sim/medium.cpp", body);
  EXPECT_TRUE(has_violation(outside, "no-raw-thread"));
  // Line 2 carries both std::thread and .detach( but reports once per line.
  EXPECT_EQ(outside.size(), 2u);
  EXPECT_FALSE(
      has_violation(scan("src/runner/thread_pool.cpp", body), "no-raw-thread"));
}

TEST(LintRules, HeaderMustHavePragmaOnceOrGuard) {
  const auto missing = scan("src/core/bad.hpp", "namespace x {}\n");
  ASSERT_TRUE(has_violation(missing, "header-pragma-once"));
  EXPECT_EQ(missing[0].line, 1u);

  EXPECT_FALSE(has_violation(scan("src/core/good.hpp", kCleanHeader),
                             "header-pragma-once"));
  EXPECT_FALSE(has_violation(
      scan("src/core/guarded.h",
           "#ifndef RETRI_GUARDED_H\n#define RETRI_GUARDED_H\n#endif\n"),
      "header-pragma-once"));
  // Rule only applies to header extensions.
  EXPECT_FALSE(
      has_violation(scan("src/core/impl.cpp", "namespace x {}\n"),
                    "header-pragma-once"));
}

TEST(LintRules, UsingNamespaceBannedInHeadersOnly) {
  const std::string body = "#pragma once\nusing namespace std;\n";
  EXPECT_TRUE(has_violation(scan("src/aff/wire.hpp", body),
                            "no-using-namespace-header"));
  EXPECT_FALSE(has_violation(scan("tests/test_wire.cpp", body),
                             "no-using-namespace-header"));
}

TEST(LintRules, DirectIoBannedInLibraryAllowedInCliScopes) {
  const std::string body = "void dump() { std::cout << 1; printf(\"x\"); }\n";
  EXPECT_TRUE(has_violation(scan("src/stats/table.cpp", body), "no-direct-io"));
  EXPECT_TRUE(has_violation(scan("tests/test_table.cpp", body), "no-direct-io"));
  EXPECT_FALSE(has_violation(scan("bench/fig1.cpp", body), "no-direct-io"));
  EXPECT_FALSE(has_violation(scan("examples/quickstart.cpp", body),
                             "no-direct-io"));
  EXPECT_TRUE(has_violation(scan("src/util/json.cpp", body), "no-direct-io"));
}

TEST(LintRules, ServeDaemonIoIsAnchorSanctionedNotPathExempt) {
  // The memo store under src/runner is a library scope like any other: a
  // stderr diagnostic there is sanctioned line by line with an allow()
  // anchor, never by widening the rule's path allowlist.
  const std::string bare =
      "std::fprintf(stderr, \"cache: quarantined %s\\n\", path);\n";
  EXPECT_TRUE(has_violation(scan("src/runner/cache.cpp", bare),
                            "no-direct-io"));
  const std::string anchored =
      "std::fprintf(stderr,  // retri-lint: allow(no-direct-io)\n"
      "             \"cache: quarantined %s\\n\", path);\n";
  EXPECT_FALSE(has_violation(scan("src/runner/cache.cpp", anchored),
                             "no-direct-io"));
}

TEST(LintRules, SnprintfIsNotDirectIo) {
  const auto vs = scan("src/stats/table.cpp",
                       "char buf[32]; std::snprintf(buf, sizeof buf, \"x\");\n");
  EXPECT_FALSE(has_violation(vs, "no-direct-io"));
}

TEST(LintRules, SharedPtrBannedInSimAndCoreOnly) {
  const std::string body =
      "auto p = std::make_shared<int>(1);\n"
      "std::shared_ptr<int> q;\n";
  EXPECT_TRUE(has_violation(scan("src/sim/medium.cpp", body),
                            "no-shared-ptr-hot"));
  EXPECT_TRUE(has_violation(scan("src/core/selector.cpp", body),
                            "no-shared-ptr-hot"));
  // The rule covers all of src/: a driver cancels its timers in its
  // destructor instead of sharing a lifetime flag with their closures.
  EXPECT_TRUE(has_violation(scan("src/aff/driver.cpp", body),
                            "no-shared-ptr-hot"));
  EXPECT_TRUE(has_violation(scan("src/util/json.cpp", body),
                            "no-shared-ptr-hot"));
  EXPECT_FALSE(has_violation(scan("tests/test_medium.cpp", body),
                             "no-shared-ptr-hot"));
}

// The send path's own files are in scope, so util::SharedBytes, the radio
// queue and the traffic source cannot drift back to atomic refcounts; nor
// can their neighbours grow a shared lifetime flag again.
TEST(LintRules, SharedPtrBannedOnTheSendPath) {
  const std::string body = "std::shared_ptr<bool> alive_;\n";
  for (const char* path :
       {"src/util/bytes.hpp", "src/util/bytes.cpp", "src/radio/radio.hpp",
        "src/radio/radio.cpp", "src/apps/workload.hpp",
        "src/apps/workload.cpp", "src/radio/duty_cycle.hpp",
        "src/apps/interest.hpp", "src/util/bitops.hpp"}) {
    EXPECT_TRUE(has_violation(scan(path, body), "no-shared-ptr-hot"))
        << path;
  }
}

TEST(LintRules, PriorityQueueBannedUnderSimOnly) {
  const std::string body =
      "#include <queue>\n"
      "std::priority_queue<int> q;\n";
  const auto vs = scan("src/sim/engine.hpp", body);
  EXPECT_TRUE(has_violation(vs, "no-priority-queue-sim"));
  // Tests keep it as a differential oracle, and other layers are free to
  // use it — only the sim event core is locked to the 4-ary event heap.
  EXPECT_FALSE(has_violation(scan("tests/test_event_queue.cpp", body),
                             "no-priority-queue-sim"));
  EXPECT_FALSE(has_violation(scan("src/runner/thread_pool.cpp", body),
                             "no-priority-queue-sim"));
  // Identifiers merely containing the words do not match.
  EXPECT_FALSE(has_violation(scan("src/sim/engine.cpp",
                                  "int my_priority_queue_size = 0;\n"),
                             "no-priority-queue-sim"));
}

TEST(LintRules, AdhocCounterBannedInSrcOutsideObs) {
  const std::string body = "std::uint64_t frames_count = 0;\n";
  EXPECT_TRUE(has_violation(scan("src/sim/medium.hpp", body),
                            "no-adhoc-counter"));
  EXPECT_TRUE(has_violation(scan("src/aff/reassembler.hpp",
                                 "std::uint64_t drop_counts[4];\n"),
                            "no-adhoc-counter"));
  // The obs layer itself holds raw counts (it IS the registry), and code
  // outside src/ (tests, benches, tools) keeps plain tallies freely.
  EXPECT_FALSE(has_violation(scan("src/obs/metrics.hpp", body),
                             "no-adhoc-counter"));
  EXPECT_FALSE(has_violation(scan("tests/test_medium.cpp", body),
                             "no-adhoc-counter"));
  EXPECT_FALSE(has_violation(scan("bench/harness.cpp", body),
                             "no-adhoc-counter"));
  // Non-counter names and non-uint64 tallies are out of the rule's lane.
  EXPECT_FALSE(has_violation(scan("src/sim/medium.hpp",
                                  "std::uint64_t next_seq = 0;\n"),
                             "no-adhoc-counter"));
  EXPECT_FALSE(has_violation(scan("src/sim/medium.hpp",
                                  "std::size_t frame_count = 0;\n"),
                             "no-adhoc-counter"));
}

TEST(LintRules, AdhocCounterEscapeHatch) {
  const auto vs = scan(
      "src/fault/injector.hpp",
      "std::uint64_t replay_count = 0;  "
      "// retri-lint: allow(no-adhoc-counter)\n");
  EXPECT_FALSE(has_violation(vs, "no-adhoc-counter"));
}

TEST(LintRules, SharedPtrEscapeHatchAndWeakPtrAllowed) {
  const std::string esc = "retri-lint: allow(no-shared-ptr-hot)";
  const auto escaped = scan(
      "src/sim/engine.cpp",
      "auto slab = std::make_shared<int>(1);  // " + esc + "\n");
  EXPECT_FALSE(has_violation(escaped, "no-shared-ptr-hot"));
  // weak_ptr observation (EventHandle) is exactly the replacement the rule
  // pushes toward — it must not match.
  const auto weak = scan("src/sim/engine.hpp",
                         "#pragma once\nstd::weak_ptr<int> w;\n");
  EXPECT_FALSE(has_violation(weak, "no-shared-ptr-hot"));
}

// --- comment/string stripping ---------------------------------------------

TEST(LintStrip, CommentsAndStringsAreBlanked) {
  const std::string stripped = lint::strip_comments(
      "int a; // std::rand here\n"
      "/* std::thread\n   spans lines */ int b;\n"
      "const char* s = \"std::cout\";\n");
  EXPECT_EQ(stripped.find("std::rand"), std::string::npos);
  EXPECT_EQ(stripped.find("std::thread"), std::string::npos);
  EXPECT_EQ(stripped.find("std::cout"), std::string::npos);
  // Code and line structure survive.
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 4);
}

TEST(LintStrip, RawStringsAreBlanked) {
  const std::string stripped = lint::strip_comments(
      "auto j = R\"({\"cmd\":\"std::cout << x\"})\";\nint after; // tail\n");
  EXPECT_EQ(stripped.find("std::cout"), std::string::npos);
  EXPECT_NE(stripped.find("int after;"), std::string::npos);
}

TEST(LintStrip, ScanIgnoresBannedTokensInCommentsAndStrings) {
  const auto vs = scan("src/core/model.cpp",
                       "// prefer util::Xoshiro256 over std::rand\n"
                       "const char* msg = \"std::cout is banned\";\n");
  EXPECT_TRUE(vs.empty());
}

// --- inline escapes ---------------------------------------------------------

TEST(LintEscape, LineAllowsParsesIdLists) {
  EXPECT_TRUE(lint::line_allows("x(); // retri-lint: allow(no-direct-io)",
                                "no-direct-io"));
  EXPECT_TRUE(lint::line_allows(
      "x(); // retri-lint: allow(no-raw-thread, no-direct-io)",
      "no-direct-io"));
  EXPECT_TRUE(lint::line_allows("x(); // retri-lint: allow(*)", "anything"));
  EXPECT_FALSE(lint::line_allows("x(); // retri-lint: allow(no-raw-thread)",
                                 "no-direct-io"));
  EXPECT_FALSE(lint::line_allows("x();", "no-direct-io"));
}

TEST(LintEscape, SuppressesOnlyTheNamedRuleOnThatLine) {
  const std::string esc = "retri-lint: allow(no-unseeded-rand)";
  const auto vs = scan("src/core/selector.cpp",
                       "void f() {\n"
                       "  int a = rand();  // " + esc + "\n" +
                       "  int b = rand();\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(LintEscape, FileLevelEscapeExcusesRequiredPattern) {
  const auto vs = scan(
      "src/core/generated.hpp",
      "// generated file, retri-lint: allow(header-pragma-once)\nint x;\n");
  EXPECT_FALSE(has_violation(vs, "header-pragma-once"));
}

// --- rule_applies -----------------------------------------------------------

TEST(LintScope, RuleAppliesChecksPrefixAndExtension) {
  const lint::Rule* io = find_rule("no-direct-io");
  ASSERT_NE(io, nullptr);
  EXPECT_TRUE(lint::rule_applies(*io, "src/core/x.cpp"));
  EXPECT_FALSE(lint::rule_applies(*io, "bench/x.cpp"));
  EXPECT_FALSE(lint::rule_applies(*io, "examples/deep/nested.cpp"));

  const lint::Rule* hdr = find_rule("header-pragma-once");
  ASSERT_NE(hdr, nullptr);
  EXPECT_TRUE(lint::rule_applies(*hdr, "src/core/x.hpp"));
  EXPECT_FALSE(lint::rule_applies(*hdr, "src/core/x.cpp"));
}

TEST(LintScope, ScopePrefixesRestrictWhereARuleApplies) {
  const lint::Rule* hot = find_rule("no-shared-ptr-hot");
  ASSERT_NE(hot, nullptr);
  ASSERT_FALSE(hot->scope_prefixes.empty());
  EXPECT_TRUE(lint::rule_applies(*hot, "src/sim/engine.cpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/core/identifier.hpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/util/bytes.hpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/radio/radio.cpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/apps/workload.hpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/aff/driver.cpp"));
  EXPECT_TRUE(lint::rule_applies(*hot, "src/radio/duty_cycle.cpp"));
  EXPECT_FALSE(lint::rule_applies(*hot, "bench/retri_bench.cpp"));
  EXPECT_FALSE(lint::rule_applies(*hot, "tests/test_engine.cpp"));

  // Rules without scope_prefixes keep their applies-everywhere default.
  const lint::Rule* rand_rule = find_rule("no-unseeded-rand");
  ASSERT_NE(rand_rule, nullptr);
  EXPECT_TRUE(rand_rule->scope_prefixes.empty());
  EXPECT_TRUE(lint::rule_applies(*rand_rule, "bench/fig1.cpp"));
}

TEST(LintRules, ViolationsSortedByLineWithinFile) {
  const auto vs = scan("src/core/x.cpp",
                       "void f() {\n"
                       "  int b = rand();\n"
                       "  auto d = std::random_device{}();\n"
                       "}\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_LT(vs[0].line, vs[1].line);
}


// ---- Token-engine semantic rules -----------------------------------------

TEST(LintGlobalState, FlagsMutableNamespaceScopeVariables) {
  const auto vs = scan("src/core/state.cpp",
                       "namespace retri::core {\n"
                       "int counter = 0;\n"
                       "}  // namespace retri::core\n");
  ASSERT_TRUE(has_violation(vs, "no-global-mutable-state"));
  for (const auto& v : vs) {
    if (v.rule_id == "no-global-mutable-state") {
      EXPECT_EQ(v.line, 2u);
    }
  }
}

TEST(LintGlobalState, ConstConstexprAndThreadLocalAreClean) {
  const auto vs = scan(
      "src/core/state.cpp",
      "namespace retri::core {\n"
      "const int kA = 1;\n"
      "constexpr double kB = 2.0;\n"
      "inline constexpr char kC[] = \"x\";\n"
      "thread_local int scratch = 0;\n"
      "static const unsigned kD[4] = {1, 2, 3, 4};\n"
      "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "no-global-mutable-state"));
}

TEST(LintGlobalState, LocalsMembersAndFunctionsAreClean) {
  const auto vs = scan(
      "src/core/state.cpp",
      "namespace retri::core {\n"
      "int f(int arg) {\n"
      "  int local = arg;\n"
      "  return local;\n"
      "}\n"
      "class C {\n"
      " public:\n"
      "  int member = 0;  // mutable, but per-instance\n"
      "};\n"
      "double p_success(unsigned id_bits, double density) noexcept;\n"
      "int g();\n"
      "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "no-global-mutable-state"));
}

TEST(LintGlobalState, AllowEscapeSuppresses) {
  const auto vs = scan(
      "src/core/state.cpp",
      "namespace retri::core {\n"
      "int hits = 0;  // retri-lint: allow(no-global-mutable-state)\n"
      "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "no-global-mutable-state"));
}

TEST(LintGlobalState, OnlyAppliesUnderSrc) {
  const auto vs = scan("tools/lint/retri_lint.cpp", "int flag = 0;\n");
  EXPECT_FALSE(has_violation(vs, "no-global-mutable-state"));
}

TEST(LintFloatEq, FlagsFloatComparisonsInNumericModules) {
  const auto vs = scan("src/sim/engine.cpp",
                       "bool f(double a, double b) {\n"
                       "  return a == b;\n"
                       "}\n");
  ASSERT_TRUE(has_violation(vs, "no-float-eq"));
}

TEST(LintFloatEq, FlagsLiteralAndNotEqualForms) {
  const auto vs = scan("src/stats/agg.cpp",
                       "bool g(double x) { return x != 0.5; }\n"
                       "bool h(float y) { return 1.0e-3 == y; }\n");
  int count = 0;
  for (const auto& v : vs) count += (v.rule_id == "no-float-eq");
  EXPECT_EQ(count, 2);
}

TEST(LintFloatEq, IntegerComparisonsAreClean) {
  const auto vs = scan("src/sim/engine.cpp",
                       "bool f(int a, std::size_t b) {\n"
                       "  return a == 3 && b != 4u;\n"
                       "}\n");
  EXPECT_FALSE(has_violation(vs, "no-float-eq"));
}

TEST(LintFloatEq, OutsideScopedModulesIsClean) {
  // The rule is scoped to src/sim, src/stats, src/radio; core is exempt.
  const auto vs = scan("src/core/model.cpp",
                       "bool f(double a, double b) { return a == b; }\n");
  EXPECT_FALSE(has_violation(vs, "no-float-eq"));
}

TEST(LintConfigValidated, FlagsConfigStructWithoutValidated) {
  const auto vs = scan("src/net/thing.hpp",
                       "#pragma once\n"
                       "namespace retri::net {\n"
                       "struct ThingConfig {\n"
                       "  int knob = 1;\n"
                       "};\n"
                       "}  // namespace\n");
  ASSERT_TRUE(has_violation(vs, "config-has-validated"));
}

TEST(LintConfigValidated, MemberDeclarationSatisfies) {
  const auto vs = scan("src/net/thing.hpp",
                       "#pragma once\n"
                       "namespace retri::net {\n"
                       "struct ThingConfig {\n"
                       "  int knob = 1;\n"
                       "  void validated() const;\n"
                       "};\n"
                       "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "config-has-validated"));
}

TEST(LintConfigValidated, FreeFunctionIdiomSatisfies) {
  const auto vs = scan("src/net/thing.hpp",
                       "#pragma once\n"
                       "namespace retri::net {\n"
                       "struct ThingConfig {\n"
                       "  int knob = 1;\n"
                       "};\n"
                       "ThingConfig validated(ThingConfig config);\n"
                       "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "config-has-validated"));
}

TEST(LintConfigValidated, NonConfigStructsAreIgnored) {
  const auto vs = scan("src/net/thing.hpp",
                       "#pragma once\n"
                       "namespace retri::net {\n"
                       "struct ThingStats {\n"
                       "  int count = 0;\n"
                       "};\n"
                       "}  // namespace\n");
  EXPECT_FALSE(has_violation(vs, "config-has-validated"));
}

}  // namespace

TEST(LintRules, BareOfstreamStoreBannedUnderServeOnly) {
  // Any raw persistent-write opening under src/runner, the memo store's
  // home, bypasses the atomic temp+fsync+rename writer and can tear a live
  // cache entry on crash.
  const std::string ofstream_body =
      "#include <fstream>\n"
      "void store() { std::ofstream out(\"entry.json\"); }\n";
  const std::string open_body =
      "void store() { int fd = ::open(\"x\", 0); (void)fd; }\n";
  EXPECT_TRUE(has_violation(scan("src/runner/cache.cpp", ofstream_body),
                            "no-bare-ofstream-store"));
  EXPECT_TRUE(has_violation(scan("src/runner/sweep.cpp", open_body),
                            "no-bare-ofstream-store"));
  // Out of scope: the same code elsewhere is some other rule's business.
  EXPECT_FALSE(has_violation(scan("src/obs/export.cpp", ofstream_body),
                             "no-bare-ofstream-store"));
  // Reads don't persist anything; std::ifstream must not match.
  EXPECT_FALSE(has_violation(
      scan("src/runner/cache.cpp",
           "#include <fstream>\n"
           "void load() { std::ifstream in(\"entry.json\"); }\n"),
      "no-bare-ofstream-store"));
}

TEST(LintRules, AtomicWriterAnchorsEscapeBareStoreRule) {
  const auto vs =
      scan("src/runner/io.cpp",
           "int fd = ::open(  // retri-lint: allow(no-bare-ofstream-store)\n"
           "    \"tmp\", 0);\n");
  EXPECT_FALSE(has_violation(vs, "no-bare-ofstream-store"));
}

TEST(LintSelectorPolicy, FlagsRawPolicyLiteralsUnderSrcAndBench) {
  const std::string body =
      "void f() { auto s = make_selector(\"hashed_counter\", space, 1); }\n";
  EXPECT_TRUE(
      has_violation(scan("src/runner/thing.cpp", body),
                    "no-raw-selector-policy"));
  EXPECT_TRUE(has_violation(scan("bench/ablate_thing.cpp", body),
                            "no-raw-selector-policy"));
  // Every registry spelling is banned, including the notify alias.
  EXPECT_TRUE(has_violation(
      scan("src/runner/thing.cpp",
           "const char* p = \"listening+notify\";\n"),
      "no-raw-selector-policy"));
}

TEST(LintSelectorPolicy, RegistryTuAndOutOfScopePathsAreExempt) {
  const std::string body = "const char* p = \"permutation\";\n";
  // The registry TU is the one sanctioned home for the spellings.
  EXPECT_FALSE(has_violation(scan("src/core/selector.cpp", body),
                             "no-raw-selector-policy"));
  // tests/ and examples/ name policies legitimately (parse_selector_spec).
  EXPECT_FALSE(has_violation(scan("tests/test_thing.cpp", body),
                             "no-raw-selector-policy"));
  EXPECT_FALSE(has_violation(scan("examples/vehicle_tracking.cpp", body),
                             "no-raw-selector-policy"));
}

TEST(LintSelectorPolicy, NearMissesAndCommentsAreClean) {
  // Only exact policy spellings match: substrings, field names, and
  // comments must not trip the rule.
  const auto vs = scan("src/runner/codec.cpp",
                       "// the \"uniform\" policy is the baseline\n"
                       "const char* k = \"counter_salt\";\n"
                       "const char* f = \"selector\";\n"
                       "const char* g = \"uniform_selector\";\n");
  EXPECT_FALSE(has_violation(vs, "no-raw-selector-policy"));
}

TEST(LintSelectorPolicy, InlineAllowEscapes) {
  const auto vs = scan(
      "src/runner/thing.cpp",
      "const char* p = \"hybrid\";"
      "  // retri-lint: allow(no-raw-selector-policy)\n");
  EXPECT_FALSE(has_violation(vs, "no-raw-selector-policy"));
}
