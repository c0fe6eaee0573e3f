#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "runner/result_sink.hpp"
#include "sim/time.hpp"
#include "util/parse_number.hpp"

namespace retri::bench {

bool try_parse_args(int argc, char** argv, BenchArgs& args,
                    std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next_value = [&](std::string_view& out) {
      if (i + 1 >= argc) {
        error = "missing value for " + std::string(flag);
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string_view value;
    if (flag == "--trials") {
      if (!next_value(value)) return false;
      if (!util::parse_int(value, args.trials) || args.trials == 0) {
        error = "--trials needs a positive integer, got '" +
                std::string(value) + "'";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!next_value(value)) return false;
      // nan, inf and 1e300 all parse; from_seconds would overflow on them.
      if (!util::parse_double(value, args.seconds) ||
          !sim::Duration::fits_positive_seconds(args.seconds)) {
        error = "--seconds needs a positive, finite number below 9.2e9, "
                "got '" + std::string(value) + "'";
        return false;
      }
    } else if (flag == "--senders") {
      if (!next_value(value)) return false;
      if (!util::parse_int(value, args.senders) || args.senders == 0) {
        error = "--senders needs a positive integer, got '" +
                std::string(value) + "'";
        return false;
      }
    } else if (flag == "--seed") {
      if (!next_value(value)) return false;
      if (!util::parse_int(value, args.seed)) {
        error = "--seed needs an unsigned integer, got '" +
                std::string(value) + "'";
        return false;
      }
    } else if (flag == "--jobs") {
      if (!next_value(value)) return false;
      if (!util::parse_int(value, args.jobs) || args.jobs == 0) {
        error = "--jobs needs a positive integer, got '" +
                std::string(value) + "'";
        return false;
      }
    } else if (flag == "--out") {
      if (!next_value(value)) return false;
      // An empty path would skip the export and still exit 0.
      if (value.empty()) {
        error = "--out needs a file path";
        return false;
      }
      args.out = std::string(value);
    } else if (flag == "--sweep") {
      if (!next_value(value)) return false;
      args.sweep = std::string(value);
    } else if (flag == "--selector") {
      if (!next_value(value)) return false;
      // An empty name would silently run the unpinned grid.
      if (value.empty()) {
        error = "--selector needs a policy name (or help)";
        return false;
      }
      args.selector = std::string(value);
    } else if (flag == "--cache") {
      if (!next_value(value)) return false;
      if (value.empty()) {
        error = "--cache needs a directory";
        return false;
      }
      args.cache = std::string(value);
    } else if (flag == "--list") {
      args.list = true;
    } else if (flag == "--csv") {
      args.csv = true;
    } else {
      error = "unknown flag: " + std::string(flag);
      return false;
    }
    args.given.emplace_back(flag);
  }
  return true;
}

BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  std::string error;
  if (!try_parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return args;
}

int require_no_out(const BenchArgs& args, std::FILE* err) {
  const char* flag = !args.sweep.empty()      ? "--sweep"
                     : !args.selector.empty() ? "--selector"
                     : !args.cache.empty()    ? "--cache"
                     : args.list              ? "--list"
                                              : nullptr;
  if (flag != nullptr) {
    std::fprintf(err, "%s is a retri_bench flag; this binary rejects it\n",
                 flag);
    return 2;
  }
  if (args.out.empty()) return 0;
  std::fprintf(err,
               "--out is not supported by this binary (it prints tables "
               "only); run the grid through `retri_bench --sweep NAME --out "
               "%s` for the JSON artifact\n",
               args.out.c_str());
  return 2;
}

int require_only(const BenchArgs& args,
                 std::initializer_list<std::string_view> reads,
                 std::FILE* err) {
  if (const int status = require_no_out(args, err)) return status;
  const auto unread =
      std::find_if(args.given.begin(), args.given.end(),
                   [reads](const std::string& flag) {
                     return std::find(reads.begin(), reads.end(), flag) ==
                            reads.end();
                   });
  if (unread == args.given.end()) return 0;
  std::string read;
  for (const std::string_view flag : reads) {
    read += ' ';
    read += flag;
  }
  std::fprintf(err, "%s is not read by this binary; it takes only:%s\n",
               unread->c_str(), read.c_str());
  return 2;
}

int export_result(const std::string& path, const runner::SweepResult& result,
                  std::FILE* err) {
  std::string error;
  if (!runner::ResultSink::write_file(path, result, &error)) {
    std::fprintf(err, "%s\n", error.c_str());
    return 2;
  }
  return 0;
}

}  // namespace retri::bench
