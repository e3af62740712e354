// Command-line flag parsing shared by ppcd and ppc_loadgen: every argument
// is --key=value or a bare --key (value "1"). Each tool declares the keys
// it reads; anything else is refused with a named error and exit status 2,
// so a misspelled or retired flag can never silently fall back to a
// default.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace ppc::cli {

using Flags = std::map<std::string, std::string>;

/// Parses argv into a key → value map. `--help`, `-h`, or a non-flag
/// argument call `usage` (which must not return); a key outside `known`
/// prints "<argv0>: unknown flag --<key>" and exits 2.
inline Flags parse_flags(int argc, char** argv,
                         std::initializer_list<std::string_view> known,
                         void (*usage)(const char* argv0)) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) != 0) {
      usage(argv[0]);
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    bool ok = false;
    for (const std::string_view k : known) ok = ok || k == key;
    if (!ok) {
      std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n", argv[0],
                   key.c_str());
      std::exit(2);
    }
    flags[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

inline std::string flag(const Flags& flags, const std::string& key,
                        const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

inline std::uint64_t flag_u64(const Flags& flags, const std::string& key,
                              std::uint64_t fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

inline double flag_double(const Flags& flags, const std::string& key,
                          double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

}  // namespace ppc::cli
