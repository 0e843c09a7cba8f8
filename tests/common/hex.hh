/**
 * @file
 * Hex rendering of byte images, for tests that pin a serialized
 * format byte for byte: a mismatch prints both images readably.
 */

#ifndef VAESA_TESTS_COMMON_HEX_HH
#define VAESA_TESTS_COMMON_HEX_HH

#include <string>

namespace vaesa::testing {

/** Lower-case hex of a byte string, two digits per byte. */
inline std::string
hex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xFu]);
    }
    return out;
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_HEX_HH
