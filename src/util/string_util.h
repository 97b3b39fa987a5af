// Small string helpers shared by the flag parser and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lad {

/// Splits `s` on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double, throwing lad::AssertionError on garbage/partial input.
double parse_double(std::string_view s);

/// Parses an integer, throwing lad::AssertionError on garbage/partial input.
long long parse_int(std::string_view s);

/// Narrows a parsed integer to int, throwing lad::AssertionError that names
/// `what` (the key or flag it came from) when it lies outside int's range.
int checked_int(long long v, std::string_view what);

/// Fixed-precision formatting ("%.*f") without iostream state leakage.
std::string format_double(double v, int precision);

/// Joins items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

}  // namespace lad
