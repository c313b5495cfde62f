#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace raidsim {

/// The whole of `text` as a number: a sign, trailing characters or an
/// out-of-range value throws std::invalid_argument "bad number in <what>"
/// (`what` names the option or argument, e.g. "option: --scale=0.5x").
template <typename T>
T parse_number(const char* text, const std::string& what) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("bad number in " + what);
  return value;
}

/// parse_number for a command-line argument: a bad one prints
/// "<program>: bad number in <name>: <text>" and exits 2.
template <typename T>
T parse_number_arg(const char* program, const std::string& name,
                   const char* text) {
  try {
    return parse_number<T>(text, name + ": " + text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    std::exit(2);
  }
}

}  // namespace raidsim
