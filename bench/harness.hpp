// Shared command-line grammar for the bench binaries.
//
// The §5.1 experiment itself lives in src/runner (runner::experiment); this
// header adds the bench-side pieces: the shared flag parser (parse_args),
// the --out artifact writer, and the guard that keeps the table-only
// binaries from silently ignoring retri_bench's flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "runner/sweep.hpp"

namespace retri::bench {

/// Parses "--flag value" style overrides shared by the benches:
/// --trials N, --seconds S, --senders N, --seed X, --jobs N, --out FILE,
/// --csv, plus the retri_bench-only --sweep NAME, --selector NAME,
/// --cache DIR and --list. Unknown flags and malformed numeric values are
/// fatal (typos must not silently run the default experiment); --seconds
/// must convert to a positive sim::Duration.
struct BenchArgs {
  unsigned trials = 10;
  double seconds = 30.0;
  std::size_t senders = 5;
  std::uint64_t seed = 1;
  unsigned jobs = 1;      // worker threads for trial execution
  std::string out;        // JSON artifact path; empty = no export
  bool csv = false;
  std::string sweep;      // retri_bench: named sweep to run
  /// retri_bench: pin the sweep's id-selection policy — a registry name
  /// from core::named_selectors(), or "help" to list them. Overrides both
  /// the sweep's base selector and its selector axis.
  std::string selector;
  bool list = false;      // retri_bench: list available sweeps
  /// retri_bench: memo-store directory for --sweep. Trials already in the
  /// store are served instead of simulated; results (and the --out
  /// artifact) are bit-identical to an uncached run.
  std::string cache;
  /// The flags given, in command-line order.
  std::vector<std::string> given;
};

/// Non-exiting parser: returns false and fills `error` on unknown flags,
/// missing values, numeric values that fail strict whole-token parsing
/// (rejected, never silently defaulted), or an empty --out, --selector or
/// --cache. Tests exercise this directly.
bool try_parse_args(int argc, char** argv, BenchArgs& args,
                    std::string& error);

/// try_parse_args, exiting with status 2 on error (bench main() entry).
BenchArgs parse_args(int argc, char** argv);

/// Writes the sweep's JSON artifact to `path` via runner::ResultSink.
/// Returns 0 on success, 2 when the path cannot be opened or the write
/// fails — the CLI's usage/IO-error status. An unwritable --out must fail
/// the whole run loudly: the artifact IS the product of a sweep, and a
/// zero exit with no file poisons scripted pipelines. The failure reason
/// is printed to `err`.
int export_result(const std::string& path, const runner::SweepResult& result,
                  std::FILE* err);

/// Exit-2 guard for the figure/ablation binaries, which print tables but
/// never export JSON. The shared grammar accepts retri_bench's own flags
/// everywhere (--sweep, --selector, --cache, --list) and --out, and
/// accepting one while silently ignoring it is the same intent-loss bug
/// class export_result closes. Returns 0 when none was given; otherwise
/// prints the first one found (--out with a redirect to
/// `retri_bench --sweep NAME --out`) and returns 2.
int require_no_out(const BenchArgs& args, std::FILE* err);

/// Exit-2 guard for a table binary that reads only the flags in `reads`:
/// require_no_out's refusals first, then the first given flag not in
/// `reads` is printed with the flags the binary does read, and 2 is
/// returned. 0 when the binary reads every flag given.
int require_only(const BenchArgs& args,
                 std::initializer_list<std::string_view> reads,
                 std::FILE* err);

}  // namespace retri::bench
