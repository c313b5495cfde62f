#pragma once

#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>

namespace raidsim {

/// One enumerator and its display name, as describe() and the bench
/// tables print it. The wire name that the service protocol, CLI flags
/// and example arguments accept is derived: the display name in lower
/// case with '/' dropped ("RF/PR" -> "rfpr", "ParStrip" -> "parstrip").
template <class E>
struct EnumName {
  E value;
  const char* display;
};

/// Specialised next to each named enum with `noun` (for error messages)
/// and `names`, one EnumName per enumerator.
template <class E>
struct EnumNames {};

template <class E>
concept NamedEnum = requires {
  EnumNames<E>::noun;
  EnumNames<E>::names;
};

template <NamedEnum E>
std::string to_string(E value) {
  for (const auto& n : EnumNames<E>::names)
    if (n.value == value) return n.display;
  return "?";
}

template <NamedEnum E>
std::string wire_name(E value) {
  std::string wire;
  for (const char c : to_string(value))
    if (c != '/')
      wire += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return wire;
}

/// Every wire name of E joined by '|', for usage and error messages.
template <NamedEnum E>
std::string wire_names() {
  std::string all;
  for (const auto& n : EnumNames<E>::names) {
    if (!all.empty()) all += '|';
    all += wire_name(n.value);
  }
  return all;
}

/// The enumerator whose wire name is `wire`. Throws std::invalid_argument
/// naming the value and the accepted names otherwise.
template <NamedEnum E>
E parse_wire_name(std::string_view wire) {
  for (const auto& n : EnumNames<E>::names)
    if (wire_name(n.value) == wire) return n.value;
  throw std::invalid_argument("unknown " + std::string(EnumNames<E>::noun) +
                              " '" + std::string(wire) + "' (expected " +
                              wire_names<E>() + ")");
}

}  // namespace raidsim
