/**
 * @file
 * The strict numeric flag parser every command-line tool shares, so a
 * typo like "4x", "abc" or "nan" is rejected before any simulation runs
 * instead of silently becoming some other run.
 */
#ifndef HERACLES_TOOLS_FLAGS_H
#define HERACLES_TOOLS_FLAGS_H

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace heracles::tools {

/** Lower bound for flags that must be strictly positive. */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/**
 * @p v must be a finite number, consumed entirely (no trailing junk),
 * within [@p lo, @p hi] and, when @p integer, whole. Anything else —
 * garbage, "4x", nan, inf, out of range — prints "error: FLAG wants
 * WANT, got 'V'" and exits 2.
 */
inline double
ParseNumber(const char* flag, const std::string& v, const char* want,
            double lo, double hi, bool integer = false)
{
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x) || x < lo ||
        x > hi || (integer && x != std::floor(x))) {
        std::fprintf(stderr, "error: %s wants %s, got '%s'\n", flag, want,
                     v.c_str());
        std::exit(2);
    }
    return x;
}

/** ParseNumber for a positive int-valued flag (thread counts, sizes). */
inline int
ParsePositiveInt(const char* flag, const char* v)
{
    return static_cast<int>(
        ParseNumber(flag, v, "a positive integer", 1,
                    std::numeric_limits<int>::max(), /*integer=*/true));
}

}  // namespace heracles::tools

#endif  // HERACLES_TOOLS_FLAGS_H
