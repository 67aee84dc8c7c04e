/**
 * @file
 * Strict number parsing for values read from the command line, the
 * environment and spec strings: the whole string must be one number
 * in range, so "4x", "abc" and "-4" are rejected instead of being
 * read as 4, 0 or a huge unsigned value.  Counts are never negative,
 * so the text must start with a digit: "+4" and " 4" are rejected
 * too.  Fractions (tolerances, throttles) take the same care: a plain
 * decimal such as "0.8", ".5" or "1e-1", never "nan", "0x1p-1",
 * " 0.8" or "1e9x".
 */

#ifndef FBDP_COMMON_PARSE_HH
#define FBDP_COMMON_PARSE_HH

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/logging.hh"

namespace fbdp {

/** @p text as a whole-string decimal integer in [@p lo, @p hi], or
 *  nothing (non-numeric text, a sign or blank in front, trailing
 *  junk, out of range, or too large for a long long, which strtoll
 *  would clamp). */
inline std::optional<long long>
parseCount(const char *text, long long lo, long long hi)
{
    // strtoll alone would also take leading blanks and a sign.
    if (*text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        return std::nullopt;
    return v;
}

/** @p text as a whole-string plain decimal in [@p lo, @p hi] —
 *  digits with an optional fraction, or a fraction alone, then an
 *  optional exponent ("0.8", ".5", "5.", "1e-1") — or nothing. */
inline std::optional<double>
parseDecimal(const char *text, double lo, double hi)
{
    // strtod alone would also take blanks, signs, hex, "inf" and "nan".
    if (!((*text >= '0' && *text <= '9') || *text == '.')
        || std::strspn(text, "0123456789.eE+-") != std::strlen(text))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !(v >= lo && v <= hi))
        return std::nullopt;
    return v;
}

/** parseCount(@p text, @p lo, @p hi), or fatal() with a message
 *  naming @p what (the flag or spec key the value was given for). */
inline long long
requireCount(const char *what, const char *text, long long lo,
             long long hi)
{
    const auto v = parseCount(text, lo, hi);
    if (!v)
        fatal("%s: bad value '%s' (expected a decimal integer in "
              "[%lld, %lld])", what, text, lo, hi);
    return *v;
}

} // namespace fbdp

#endif // FBDP_COMMON_PARSE_HH
