// magicbench: the repository benchmark. Runs one workload from one
// process, checks every answer, and prints every metric by name with its
// unit; the last stdout line is the JSON result. Usually started through
// magicbench/run.py, which builds this binary from source first.
//
//   magicbench --workload views_adhoc|analytic|analytic_spill --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--spill-dir DIR]
//              [--stamp key=value]...

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "magicbench/harness.h"

namespace {

/// Parses a numeric flag value; exits with a usage error when malformed.
template <typename T, typename F>
T ParseOr(const std::string& text, F parse) {
  try {
    return parse(text);
  } catch (const std::exception&) {
    std::cerr << "not a number: " << text << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  magicbench::RunOptions options;
  options.out_dir = ".";
  options.spill_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = ParseOr<uint64_t>(value(), [](const std::string& v) {
        return std::stoull(v);
      });
    } else if (arg == "--seconds") {
      options.seconds = ParseOr<double>(value(), [](const std::string& v) {
        return std::stod(v);
      });
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--spill-dir") {
      options.spill_dir = value();
    } else if (arg == "--stamp") {
      const std::string kv = value();
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--stamp expects key=value\n";
        return 2;
      }
      options.stamp.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    std::cerr << "usage: magicbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  return magicbench::RunBenchmark(options);
}
