/**
 * @file
 * 64-bit FNV-1a, the hash behind every determinism fingerprint in the
 * tree: the HA and fleet end states, the fault plan's injection
 * history, the fleet-sim dashboard and the telemetry subscription map
 * identity. Each mixer takes the running hash and returns the next
 * one, so a caller chains them over the fields that make up its
 * identity. Multi-byte values mix least-significant byte first.
 */

#ifndef HARMONIA_COMMON_FNV_H_
#define HARMONIA_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace harmonia {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

constexpr std::uint64_t
fnv1aByte(std::uint64_t hash, std::uint8_t byte)
{
    return (hash ^ byte) * kFnv1aPrime;
}

constexpr std::uint64_t
fnv1aWord(std::uint64_t hash, std::uint32_t word)
{
    for (unsigned b = 0; b < 4; ++b)
        hash = fnv1aByte(hash, (word >> (8 * b)) & 0xff);
    return hash;
}

constexpr std::uint64_t
fnv1aValue(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned b = 0; b < 8; ++b)
        hash = fnv1aByte(hash, (value >> (8 * b)) & 0xff);
    return hash;
}

/** The string's bytes, without a terminator. */
constexpr std::uint64_t
fnv1aString(std::uint64_t hash, std::string_view s)
{
    for (const char c : s)
        hash = fnv1aByte(hash, static_cast<std::uint8_t>(c));
    return hash;
}

} // namespace harmonia

#endif // HARMONIA_COMMON_FNV_H_
