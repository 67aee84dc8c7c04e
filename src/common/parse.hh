/**
 * @file
 * Strict number parsing for values read from the command line, the
 * environment and spec strings: the whole string must be one number
 * in range, so "4x", "abc" and "-4" are rejected instead of being
 * read as 4, 0 or a huge unsigned value.
 */

#ifndef FBDP_COMMON_PARSE_HH
#define FBDP_COMMON_PARSE_HH

#include <cerrno>
#include <cstdlib>
#include <optional>

#include "common/logging.hh"

namespace fbdp {

/** @p text as a whole-string decimal integer in [@p lo, @p hi], or
 *  nothing (non-numeric text, trailing junk, out of range, or too
 *  large for a long long, which strtoll would clamp). */
inline std::optional<long long>
parseCount(const char *text, long long lo, long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
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
