/**
 * @file
 * Compile-time guarantee of sim::InlineFn: a callable must fit its
 * 48-byte inline buffer. This 64-byte capture must not compile; the
 * inline_fn_oversized_capture_rejected ctest builds it and passes on
 * InlineFn's static_assert message.
 */
#include <array>

#include "sim/inline_fn.h"

int
main()
{
    std::array<unsigned char, 64> capture{};
    heracles::sim::InlineFn fn([capture] { (void)capture; });
    fn();
    return 0;
}
