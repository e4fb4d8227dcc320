// cli.hpp — the examples' one command-line parser.
//
// Every example takes "--<name> <value>" flags only.  An unknown flag, a
// missing value, a malformed or out-of-range number, or a --L extent that
// LatticeGeom rejects exits 2 with "<prog>: <message>" on stderr, worded as
// the benches word it (bench/bench_common.hpp).
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <system_error>

#include "lattice/geometry.hpp"

namespace milc::examples {

/// One flag and the variable its value sets: an integer of at least `min`
/// (a lattice extent when the flag is --L), or a positive, finite real.
struct Flag {
  Flag(const char* flag, int& value, int lowest) : name(flag), integer(&value), min(lowest) {}
  Flag(const char* flag, double& value) : name(flag), real(&value) {}

  const char* name;
  int* integer = nullptr;
  double* real = nullptr;
  int min = 0;
};

[[noreturn]] inline void usage_error(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  std::exit(2);
}

/// Set every flag argv names; anything else on the command line is a
/// usage_error.
inline void parse_flags(int argc, char** argv, std::initializer_list<Flag> flags) {
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const Flag* f = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag& candidate) { return name == candidate.name; });
    if (f == flags.end()) usage_error(prog, "unknown option '" + name + "'");
    if (i + 1 >= argc) usage_error(prog, name + " expects a value");
    const char* text = argv[++i];
    const char* end = text + std::strlen(text);
    if (f->integer != nullptr) {
      int v = 0;
      const auto [ptr, ec] = std::from_chars(text, end, v);
      if (ec != std::errc{} || ptr != end || v < f->min) {
        usage_error(prog, name + " expects an integer >= " + std::to_string(f->min) +
                              ", got '" + text + "'");
      }
      if (name == "--L") {
        try {
          (void)LatticeGeom(v);
        } catch (const std::invalid_argument& e) {
          usage_error(prog, name + " " + text + ": " + e.what());
        }
      }
      *f->integer = v;
    } else {
      double v = 0.0;
      const auto [ptr, ec] = std::from_chars(text, end, v);
      if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0.0) {
        usage_error(prog, name + " expects a positive number, got '" + text + "'");
      }
      *f->real = v;
    }
  }
}

}  // namespace milc::examples
