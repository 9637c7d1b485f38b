/**
 * @file
 * The strict numeric flag parser every command-line tool shares, so a
 * typo like "4x", "abc" or "nan" is rejected before any simulation runs
 * instead of silently becoming some other run.
 */
#ifndef HERACLES_TOOLS_FLAGS_H
#define HERACLES_TOOLS_FLAGS_H

#include <cmath>
#include <cstdint>
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

/**
 * @p v must be one or more decimal digits (no sign, no whitespace) whose
 * value fits in 64 bits. Anything else — "-1", " 7", "1e3", a 21-digit
 * overflow — prints "error: FLAG wants a non-negative integer, got 'V'"
 * and exits 2. Seeds use this: strtoull would wrap "-1" to 2^64-1 and
 * clamp an overflow, silently running some other seed.
 */
inline uint64_t
ParseUint64(const char* flag, const std::string& v)
{
    uint64_t x = 0;
    bool ok = !v.empty();
    for (const char c : v) {
        const int digit = c - '0';
        if (digit < 0 || digit > 9 ||
            x > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
            ok = false;
            break;
        }
        x = x * 10 + static_cast<uint64_t>(digit);
    }
    if (!ok) {
        std::fprintf(stderr,
                     "error: %s wants a non-negative integer, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    return x;
}

}  // namespace heracles::tools

#endif  // HERACLES_TOOLS_FLAGS_H
