// bench::try_parse_args — the shared CLI grammar. Unknown flags are fatal
// and malformed numerics are rejected (never silently defaulted); the
// exiting parse_args is a trivial wrapper over this.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"
#include "runner/result_sink.hpp"

using retri::bench::BenchArgs;
using retri::bench::try_parse_args;

namespace {

struct ParseOutcome {
  bool ok = false;
  BenchArgs args;
  std::string error;
};

ParseOutcome parse(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& token : tokens) argv.push_back(token.data());
  ParseOutcome outcome;
  outcome.ok = try_parse_args(static_cast<int>(argv.size()), argv.data(),
                              outcome.args, outcome.error);
  return outcome;
}

// Runs an exit-2 guard against a temporary stream: its status, and what
// it printed.
template <typename Guard>
std::string guard_output(Guard guard, int& status) {
  std::FILE* err = std::tmpfile();
  EXPECT_NE(err, nullptr);
  if (err == nullptr) return std::string();
  status = guard(err);
  std::rewind(err);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, err);
  std::fclose(err);
  return std::string(buf, n);
}

}  // namespace

TEST(ParseArgs, DefaultsWhenNoFlags) {
  const auto outcome = parse({});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.args.trials, 10u);
  EXPECT_DOUBLE_EQ(outcome.args.seconds, 30.0);
  EXPECT_EQ(outcome.args.senders, 5u);
  EXPECT_EQ(outcome.args.seed, 1u);
  EXPECT_EQ(outcome.args.jobs, 1u);
  EXPECT_TRUE(outcome.args.out.empty());
  EXPECT_FALSE(outcome.args.csv);
  EXPECT_FALSE(outcome.args.list);
}

TEST(ParseArgs, JobsAndOutRoundTrip) {
  const auto outcome = parse({"--jobs", "8", "--out", "fig4.json", "--sweep",
                              "fig4", "--trials", "3", "--seconds", "1.5",
                              "--seed", "99", "--senders", "7", "--csv"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.args.jobs, 8u);
  EXPECT_EQ(outcome.args.out, "fig4.json");
  EXPECT_EQ(outcome.args.sweep, "fig4");
  EXPECT_EQ(outcome.args.trials, 3u);
  EXPECT_DOUBLE_EQ(outcome.args.seconds, 1.5);
  EXPECT_EQ(outcome.args.seed, 99u);
  EXPECT_EQ(outcome.args.senders, 7u);
  EXPECT_TRUE(outcome.args.csv);
}

TEST(ParseArgs, UnknownFlagIsFatal) {
  // A typo'd --trials, and --micro/--macro, which are not flags: a script
  // still passing one must exit 2 rather than run a sweep or the default.
  for (const std::string flag : {"--trails", "--micro", "--macro"}) {
    const auto outcome = parse({flag, "10"});
    EXPECT_FALSE(outcome.ok) << flag;
    EXPECT_NE(outcome.error.find("unknown flag: " + flag), std::string::npos)
        << outcome.error;
  }
}

TEST(ParseArgs, MissingValueIsFatal) {
  const auto outcome = parse({"--jobs"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("--jobs"), std::string::npos);
}

TEST(ParseArgs, RejectsNonNumericValues) {
  EXPECT_FALSE(parse({"--trials", "abc"}).ok);
  EXPECT_FALSE(parse({"--seconds", "fast"}).ok);
  EXPECT_FALSE(parse({"--jobs", "four"}).ok);
  EXPECT_FALSE(parse({"--seed", "0x10"}).ok);
}

TEST(ParseArgs, RejectsTrailingJunkAndPartialNumbers) {
  EXPECT_FALSE(parse({"--trials", "10x"}).ok);
  EXPECT_FALSE(parse({"--trials", "1.5"}).ok);
  EXPECT_FALSE(parse({"--seconds", "30s"}).ok);
  EXPECT_FALSE(parse({"--trials", ""}).ok);
}

TEST(ParseArgs, RejectsNegativeAndZeroWhereMeaningless) {
  EXPECT_FALSE(parse({"--trials", "-3"}).ok);
  EXPECT_FALSE(parse({"--trials", "0"}).ok);
  EXPECT_FALSE(parse({"--jobs", "0"}).ok);
  EXPECT_FALSE(parse({"--senders", "0"}).ok);
  EXPECT_FALSE(parse({"--seconds", "-1"}).ok);
  EXPECT_FALSE(parse({"--seconds", "0"}).ok);
}

TEST(ParseArgs, RejectsSecondsThatDoNotFitADuration) {
  // nan, inf and huge values all parse as doubles, but would overflow
  // sim::Duration::from_seconds and abort the run instead of failing the
  // parse; a value under half a nanosecond would round to a zero duration.
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e300",
                          "1e10", "9.3e9", "1e-12"}) {
    const auto outcome = parse({"--seconds", bad});
    EXPECT_FALSE(outcome.ok) << bad;
    EXPECT_NE(outcome.error.find("--seconds"), std::string::npos) << bad;
  }
  // The largest and smallest accepted values still convert exactly.
  EXPECT_TRUE(parse({"--seconds", "9.2e9"}).ok);
  EXPECT_TRUE(parse({"--seconds", "1e-9"}).ok);
}

TEST(ParseArgs, CacheTakesADirectory) {
  const auto outcome = parse({"--sweep", "fig4", "--cache", "memo"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.args.cache, "memo");
  EXPECT_FALSE(parse({"--cache"}).ok);
  EXPECT_FALSE(parse({"--cache", ""}).ok);
}

TEST(ParseArgs, RejectsEmptyOutAndSelector) {
  // An empty --out would skip the export yet exit 0, and an empty
  // --selector would run the unpinned grid; both must fail the parse.
  for (const std::string flag : {"--out", "--selector"}) {
    const auto outcome = parse({"--sweep", "fig4", flag, ""});
    EXPECT_FALSE(outcome.ok) << flag;
    EXPECT_NE(outcome.error.find(flag), std::string::npos) << outcome.error;
  }
}

TEST(ParseArgs, ErrorNamesTheOffendingValue) {
  const auto outcome = parse({"--jobs", "many"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("--jobs"), std::string::npos);
  EXPECT_NE(outcome.error.find("many"), std::string::npos);
}

// --- export_result: --out failure semantics ---------------------------------
//
// Regression for the silent-artifact-loss bug class: retri_bench must exit 2
// (usage/IO error), not 0 or a generic 1, when --out cannot be written.

namespace {

// Tiny but non-empty result so the JSON writer exercises a real payload.
retri::runner::SweepResult tiny_result() {
  retri::runner::SweepResult result;
  result.spec.name = "unit";
  result.spec.description = "export_result unit fixture";
  result.spec.trials = 1;
  return result;
}

}  // namespace

TEST(ExportResult, UnwritablePathReturnsStatus2) {
  std::FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  const int status = retri::bench::export_result(
      "/nonexistent-retri-dir/out.json", tiny_result(), err);
  EXPECT_EQ(status, 2);

  // The failure reason lands on the error stream, naming the path.
  std::rewind(err);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, err);
  EXPECT_NE(std::string(buf, n).find("/nonexistent-retri-dir/out.json"),
            std::string::npos);
  std::fclose(err);
}

TEST(ExportResult, DirectoryAsOutputPathReturnsStatus2) {
  std::FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  const auto dir = std::filesystem::temp_directory_path();
  EXPECT_EQ(retri::bench::export_result(dir.string(), tiny_result(), err), 2);
  std::fclose(err);
}

TEST(ExportResult, WritablePathReturnsZeroAndWritesArtifact) {
  const auto path =
      std::filesystem::temp_directory_path() / "retri_export_result_ok.json";
  std::filesystem::remove(path);

  std::FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(retri::bench::export_result(path.string(), tiny_result(), err), 0);
  std::fclose(err);

  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(ResultSinkWriteFile, FillsErrorForUnwritablePath) {
  std::string error;
  EXPECT_FALSE(retri::runner::ResultSink::write_file(
      "/nonexistent-retri-dir/out.json", tiny_result(), &error));
  EXPECT_FALSE(error.empty());
}

TEST(RequireNoOut, PassesWhenOutUnset) {
  BenchArgs args;
  EXPECT_EQ(retri::bench::require_no_out(args, stderr), 0);
  // The flags the figure/ablation binaries honor pass the guard.
  const auto outcome = parse({"--trials", "3", "--seconds", "1.5", "--senders",
                              "7", "--seed", "99", "--jobs", "2", "--csv"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(retri::bench::require_no_out(outcome.args, stderr), 0);
}

TEST(RequireNoOut, RejectsIgnoredOutWithStatus2AndRedirect) {
  const auto guard_message = [](const BenchArgs& args, int& status) {
    return guard_output(
        [&args](std::FILE* err) {
          return retri::bench::require_no_out(args, err);
        },
        status);
  };

  BenchArgs args;
  args.out = "fig.json";
  int status = 0;
  std::string msg = guard_message(args, status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(msg.find("retri_bench"), std::string::npos);
  EXPECT_NE(msg.find("fig.json"), std::string::npos);

  // retri_bench's own flags are refused the same way, each by name.
  const std::vector<std::vector<std::string>> retri_bench_only = {
      {"--sweep", "fig4"}, {"--selector", "uniform"}, {"--cache", "memo"},
      {"--list"}};
  for (const std::vector<std::string>& tokens : retri_bench_only) {
    const auto outcome = parse(tokens);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    status = 0;
    msg = guard_message(outcome.args, status);
    EXPECT_EQ(status, 2) << tokens[0];
    EXPECT_NE(msg.find(tokens[0]), std::string::npos) << msg;
  }
}

// A table binary reads only some of the shared flags; any other it was
// given exits 2 by name before the binary prints anything.
TEST(RequireOnly, PassesTheFlagsABinaryReads) {
  const auto outcome = parse({"--seed", "5", "--csv", "--seed", "6"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.args.given,
            (std::vector<std::string>{"--seed", "--csv", "--seed"}));
  EXPECT_EQ(retri::bench::require_only(outcome.args, {"--seed", "--csv"},
                                       stderr),
            0);
  EXPECT_EQ(retri::bench::require_only(BenchArgs{}, {"--csv"}, stderr), 0);
}

TEST(RequireOnly, RejectsTheFirstUnreadFlagByName) {
  const auto refusal = [](const std::vector<std::string>& tokens,
                          int& status) {
    const auto outcome = parse(tokens);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    return guard_output(
        [&outcome](std::FILE* err) {
          return retri::bench::require_only(outcome.args, {"--csv"}, err);
        },
        status);
  };

  // fig1_efficiency_16bit's old silent run: it reads only --csv.
  int status = 0;
  std::string msg = refusal({"--csv", "--trials", "7", "--senders", "3",
                             "--jobs", "2", "--seed", "5", "--seconds", "1"},
                            status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(msg.find("--trials is not read"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("--senders"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--csv"), std::string::npos) << msg;

  for (const std::vector<std::string>& tokens :
       std::vector<std::vector<std::string>>{{"--trials", "7"},
                                             {"--senders", "3"},
                                             {"--jobs", "2"},
                                             {"--seed", "5"},
                                             {"--seconds", "1"}}) {
    status = 0;
    msg = refusal(tokens, status);
    EXPECT_EQ(status, 2) << tokens[0];
    EXPECT_NE(msg.find(tokens[0] + " is not read"), std::string::npos) << msg;
  }

  // --out keeps its redirect, and retri_bench's flags their refusal.
  status = 0;
  msg = refusal({"--trials", "7", "--out", "fig.json"}, status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(msg.find("retri_bench --sweep NAME --out fig.json"),
            std::string::npos)
      << msg;
  status = 0;
  msg = refusal({"--sweep", "fig4"}, status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(msg.find("--sweep is a retri_bench flag"), std::string::npos)
      << msg;
}
