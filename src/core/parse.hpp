// One reader for the numbers in outside text: command-line counts, the
// MCS_THREADS variable, SLO specs and repro files all parse a field here,
// so they accept and reject the same spellings.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mcs::core {

/// Parses the whole of `text` as a T through std::from_chars: a plain
/// decimal with no blank, no '+', no trailing text and a '-' only where T
/// is signed; a value out of T's range fails rather than wraps. A floating
/// T also takes an exponent ("1e2"), but no hex float, and the value must
/// be finite: "inf" and "nan" fail. Returns false, with `out` unspecified,
/// when `text` is not such a value.
template <typename T>
[[nodiscard]] bool parse_whole(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, out);
  if (error != std::errc{} || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(out);
  } else {
    return true;
  }
}

}  // namespace mcs::core
