#include "util/string_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/assert.h"

namespace lad {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  const std::string buf(trim(s));
  LAD_REQUIRE_MSG(!buf.empty(), "empty string is not a number");
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  LAD_REQUIRE_MSG(end == buf.c_str() + buf.size(),
                  "not a valid double: '" << buf << "'");
  return v;
}

long long parse_int(std::string_view s) {
  const std::string buf(trim(s));
  LAD_REQUIRE_MSG(!buf.empty(), "empty string is not an integer");
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  LAD_REQUIRE_MSG(end == buf.c_str() + buf.size(),
                  "not a valid integer: '" << buf << "'");
  return v;
}

int checked_int(long long v, std::string_view what) {
  LAD_REQUIRE_MSG(v >= std::numeric_limits<int>::min() &&
                      v <= std::numeric_limits<int>::max(),
                  what << " = " << v << " is out of range (must fit in int: ["
                       << std::numeric_limits<int>::min() << ", "
                       << std::numeric_limits<int>::max() << "])");
  return static_cast<int>(v);
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace lad
