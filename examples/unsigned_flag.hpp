// Whole-value parsing of the unsigned count and seed flags shared by the
// campaign CLIs, so `--seed` covers the full uint64 range the service's
// JSON path accepts and a bad value is an error rather than a clamp.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

/// Parses `text` as a decimal T. A sign, leading blanks, trailing
/// characters or a value past T's range print a message and exit 2.
template <typename T>
T parse_unsigned_flag(const char* flag, const char* text) {
  T value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: expected an unsigned decimal integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}
