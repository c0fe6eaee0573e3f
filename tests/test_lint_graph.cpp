// Unit tests for the retri_lint include-graph engine (tools/lint/graph.hpp):
// layer parsing, edge extraction, upward-include detection, cycle reporting
// with shortest paths, allow() escapes on the anchoring include, and the
// DOT export.
#include "graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rules.hpp"

namespace lint = retri::lint;

namespace {

// A two-rule table over a tiny declared order, independent of the real
// tree's layer table so these tests don't churn when the architecture
// grows a module.
std::vector<lint::Rule> graph_rules(const std::string& order) {
  std::vector<lint::Rule> rules;
  lint::Rule layer;
  layer.id = "layer-order";
  layer.kind = lint::RuleKind::kGraphCheck;
  layer.pattern = order;
  layer.message = "respect the declared layer order";
  rules.push_back(layer);
  lint::Rule cycle;
  cycle.id = "include-cycle";
  cycle.kind = lint::RuleKind::kGraphCheck;
  cycle.pattern = order;
  cycle.message = "break the cycle";
  rules.push_back(cycle);
  return rules;
}

lint::SourceFile file(const std::string& path, const std::string& contents) {
  return lint::SourceFile{path, contents};
}

bool has_rule(const std::vector<lint::Violation>& vs, const std::string& id) {
  return std::any_of(vs.begin(), vs.end(), [&](const lint::Violation& v) {
    return v.rule_id == id;
  });
}

TEST(LintLayerSpec, ParsesOrderAndRanks) {
  const auto spec = lint::LayerSpec::parse("util < core <  sim");
  ASSERT_EQ(spec.order.size(), 3u);
  EXPECT_EQ(spec.rank("util"), 0u);
  EXPECT_EQ(spec.rank("sim"), 2u);
  EXPECT_FALSE(spec.known("apps"));
}

TEST(LintGraphEdges, ExtractsCrossModuleIncludesOnly) {
  const auto spec = lint::LayerSpec::parse("util < core");
  const std::vector<lint::SourceFile> files = {
      file("src/core/a.hpp",
           "#pragma once\n#include \"util/b.hpp\"\n#include <vector>\n"
           "#include \"core/self.hpp\"\n#include \"local.hpp\"\n"),
      file("tools/x/t.cpp", "#include \"core/a.hpp\"\n"),  // not a module
  };
  const auto edges = lint::collect_edges(files, spec);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, "core");
  EXPECT_EQ(edges[0].to, "util");
  EXPECT_EQ(edges[0].file, "src/core/a.hpp");
  EXPECT_EQ(edges[0].line, 2u);
}

TEST(LintGraphEdges, IncludesInCommentsAndStringsDoNotCount) {
  const auto spec = lint::LayerSpec::parse("util < core");
  const std::vector<lint::SourceFile> files = {
      file("src/util/a.hpp",
           "#pragma once\n"
           "// #include \"core/upward.hpp\"\n"
           "const char* s = \"#include \\\"core/upward.hpp\\\"\";\n"),
  };
  EXPECT_TRUE(lint::collect_edges(files, spec).empty());
}

TEST(LintGraphLayer, FlagsUpwardIncludeWithRanks) {
  const std::vector<lint::SourceFile> files = {
      file("src/util/low.hpp", "#pragma once\n#include \"sim/high.hpp\"\n"),
      file("src/sim/high.hpp", "#pragma once\n"),
  };
  const auto vs = lint::check_graph(files, graph_rules("util < core < sim"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule_id, "layer-order");
  EXPECT_EQ(vs[0].file, "src/util/low.hpp");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_NE(vs[0].message.find("'util' (layer 0)"), std::string::npos);
  EXPECT_NE(vs[0].message.find("'sim' (layer 2)"), std::string::npos);
}

TEST(LintGraphLayer, DownwardIncludesAreClean) {
  const std::vector<lint::SourceFile> files = {
      file("src/sim/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
      file("src/util/b.hpp", "#pragma once\n"),
  };
  EXPECT_TRUE(
      lint::check_graph(files, graph_rules("util < core < sim")).empty());
}

TEST(LintGraphLayer, UndeclaredModuleIsFlagged) {
  const std::vector<lint::SourceFile> files = {
      file("src/rogue/a.hpp", "#pragma once\n"),
  };
  const auto vs = lint::check_graph(files, graph_rules("util < core"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule_id, "layer-order");
  EXPECT_NE(vs[0].message.find("'rogue'"), std::string::npos);
}

TEST(LintGraphLayer, AllowEscapeOnTheIncludeLineSuppresses) {
  const std::vector<lint::SourceFile> files = {
      file("src/util/low.hpp",
           "#pragma once\n"
           "#include \"sim/high.hpp\"  // retri-lint: allow(layer-order)\n"),
      file("src/sim/high.hpp", "#pragma once\n"),
  };
  EXPECT_TRUE(
      lint::check_graph(files, graph_rules("util < core < sim")).empty());
}

TEST(LintGraphCycle, ReportsShortestPathOnce) {
  // a -> b -> a plus an uninvolved c; one report, from the smallest member.
  const std::vector<lint::SourceFile> files = {
      file("src/aff/a.hpp", "#pragma once\n#include \"sim/b.hpp\"\n"),
      file("src/sim/b.hpp", "#pragma once\n#include \"aff/a.hpp\"\n"),
      file("src/util/c.hpp", "#pragma once\n"),
  };
  const auto vs = lint::check_graph(files, graph_rules("util < sim < aff"));
  // The sim -> aff edge is also a layer inversion; isolate the cycle rule.
  std::vector<lint::Violation> cycles;
  for (const auto& v : vs) {
    if (v.rule_id == "include-cycle") cycles.push_back(v);
  }
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("aff -> sim -> aff"), std::string::npos);
  EXPECT_EQ(cycles[0].file, "src/aff/a.hpp");
  EXPECT_EQ(cycles[0].line, 2u);
}

TEST(LintGraphCycle, LongerCycleFindsShortestLoop) {
  // a -> b -> c -> a: the shortest loop through the smallest member has
  // all three modules; the path must not wander.
  const std::vector<lint::SourceFile> files = {
      file("src/aff/a.hpp", "#pragma once\n#include \"net/b.hpp\"\n"),
      file("src/net/b.hpp", "#pragma once\n#include \"sim/c.hpp\"\n"),
      file("src/sim/c.hpp", "#pragma once\n#include \"aff/a.hpp\"\n"),
  };
  const auto vs =
      lint::check_graph(files, graph_rules("util < sim < net < aff"));
  std::vector<lint::Violation> cycles;
  for (const auto& v : vs) {
    if (v.rule_id == "include-cycle") cycles.push_back(v);
  }
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("aff -> net -> sim -> aff"),
            std::string::npos);
}

TEST(LintGraphCycle, AcyclicTreeIsClean) {
  const std::vector<lint::SourceFile> files = {
      file("src/sim/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
      file("src/core/d.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
      file("src/util/b.hpp", "#pragma once\n"),
  };
  EXPECT_FALSE(has_rule(
      lint::check_graph(files, graph_rules("util < core < sim")),
      "include-cycle"));
}

TEST(LintGraphDot, DeterministicExportCarriesRanksAndCounts) {
  const auto spec = lint::LayerSpec::parse("util < sim");
  const std::vector<lint::SourceFile> files = {
      file("src/sim/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
      file("src/sim/c.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
      file("src/util/b.hpp", "#pragma once\n"),
  };
  const std::string dot = lint::graph_dot(files, spec);
  EXPECT_NE(dot.find("digraph retri_modules"), std::string::npos);
  EXPECT_NE(dot.find("\"sim\" -> \"util\" [label=\"2\"]"), std::string::npos);
  EXPECT_NE(dot.find("util (0)"), std::string::npos);
  EXPECT_NE(dot.find("sim (1)"), std::string::npos);
  // Byte-identical on a second run — the committed artifact never churns.
  EXPECT_EQ(dot, lint::graph_dot(files, spec));
}

TEST(LintGraphDefaultTable, RealTreeRulesShareOneLayerTable) {
  const lint::Rule* layer = nullptr;
  const lint::Rule* cycle = nullptr;
  for (const lint::Rule& rule : lint::default_rules()) {
    if (rule.id == "layer-order") layer = &rule;
    if (rule.id == "include-cycle") cycle = &rule;
  }
  ASSERT_NE(layer, nullptr);
  ASSERT_NE(cycle, nullptr);
  EXPECT_EQ(layer->kind, lint::RuleKind::kGraphCheck);
  EXPECT_EQ(cycle->kind, lint::RuleKind::kGraphCheck);
  EXPECT_EQ(layer->pattern, cycle->pattern);
  const auto spec = lint::LayerSpec::parse(layer->pattern);
  // The foundation and the top of the stack, pinned: utilities below
  // everything, the runner (trials, sweeps, memo store) above everything.
  ASSERT_GE(spec.order.size(), 2u);
  EXPECT_EQ(spec.order.front(), "util");
  EXPECT_EQ(spec.order.back(), "runner");
}

}  // namespace
