#include <gtest/gtest.h>

#include "common/fnv.h"

namespace harmonia {
namespace {

TEST(Fnv1a64, StandardVectors)
{
    EXPECT_EQ(fnv1aString(kFnv1aOffset, ""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1aString(kFnv1aOffset, "a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1aString(kFnv1aOffset, "foobar"),
              0x85944171f73967e8ULL);
    static_assert(fnv1aByte(kFnv1aOffset, 'a') == 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a64, WideMixersAreLittleEndianBytes)
{
    const std::uint64_t h = fnv1aString(kFnv1aOffset, "seed");
    EXPECT_EQ(fnv1aWord(h, 0x64636261u), fnv1aString(h, "abcd"));
    EXPECT_EQ(fnv1aValue(h, 0x6867666564636261ULL),
              fnv1aString(h, "abcdefgh"));
    EXPECT_EQ(fnv1aValue(h, 0x0807060504030201ULL),
              fnv1aWord(fnv1aWord(h, 0x04030201u), 0x08070605u));
}

} // namespace
} // namespace harmonia
