// Command-line flag parsing shared by ppcd, ppc_loadgen and ppcguard (which
// parses the flags after its command word): every argument is --key=value
// or a bare --key (value "1"). Each tool declares the keys it reads;
// anything else is refused with a named error and exit status 2,
// so a misspelled or retired flag can never silently fall back to a
// default. Numeric values are parsed strictly (server::parse_u64 /
// parse_double): a negative, partly numeric or empty value is refused with
// "invalid value for --<key>" and exit status 2, and so is a HOST:PORT
// flag whose port is not a decimal in [0, 65535].
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "server/server_config.hpp"

namespace ppc::cli {

using Flags = std::map<std::string, std::string>;

/// argv[0] of the running tool, recorded by parse_flags for error text.
inline const char* g_program = "";

/// Parses argv into a key → value map. `--help`, `-h`, or a non-flag
/// argument call `usage` (which must not return); a key outside `known`
/// prints "<argv0>: unknown flag --<key>" and exits 2.
inline Flags parse_flags(int argc, char** argv,
                         std::initializer_list<std::string_view> known,
                         void (*usage)(const char* argv0)) {
  g_program = argv[0];
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

/// Looks up `key` and parses it with `parse` (a strict server:: parser);
/// a malformed value prints "<argv0>: invalid value for --<key>: '<v>'"
/// and exits 2.
template <typename T, typename Parse>
T parse_flag(const Flags& flags, const std::string& key, T fallback,
             Parse parse) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  try {
    return parse(it->second, "--" + key);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s (see --help)\n", g_program, e.what());
    std::exit(2);
  }
}

inline std::uint64_t flag_u64(const Flags& flags, const std::string& key,
                              std::uint64_t fallback) {
  return parse_flag(flags, key, fallback, server::parse_u64);
}

inline double flag_double(const Flags& flags, const std::string& key,
                          double fallback) {
  return parse_flag(flags, key, fallback, server::parse_double);
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Strict HOST:PORT: the port must be a decimal in [0, 65535]; anything
/// else throws std::invalid_argument naming `what`.
inline HostPort parse_hostport(const std::string& text,
                               const std::string& what) {
  const auto colon = text.rfind(':');
  const std::uint64_t port =
      colon == std::string::npos
          ? 65536
          : server::parse_u64(std::string_view(text).substr(colon + 1), what);
  if (port > 65535) {
    throw std::invalid_argument("invalid value for " + what + ": '" + text +
                                "' (want HOST:PORT, port 0-65535)");
  }
  return {text.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Looks up the HOST:PORT flag `key` through parse_hostport, exiting 2 on a
/// malformed value like parse_flag; nullopt when the flag is absent and
/// `fallback` is empty.
inline std::optional<HostPort> flag_hostport(const Flags& flags,
                                             const std::string& key,
                                             const std::string& fallback) {
  if (flags.contains(key)) {
    return parse_flag(flags, key, HostPort{}, parse_hostport);
  }
  if (fallback.empty()) return std::nullopt;
  return parse_hostport(fallback, "--" + key);
}

}  // namespace ppc::cli
