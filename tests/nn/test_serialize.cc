/** @file Unit tests for the parameter records of framed files. */

#include <gtest/gtest.h>

#include "nn/sequential.hh"
#include "nn/serialize.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

constexpr std::uint32_t testMagic = 0x54455354; // "TEST"

/** A framed in-memory image holding @p params' records. */
std::string
recordsOf(const std::vector<Parameter *> &params)
{
    RecordWriter out(testMagic, 1);
    writeParameterRecords(out, params);
    return out.bytes();
}

/** Read the records of @p bytes, named @p file, into @p params. */
std::optional<LoadError>
readInto(const std::string &bytes, const std::vector<Parameter *> &params,
         const std::string &file = "memory")
{
    RecordReader in(bytes, file);
    std::uint32_t version = 0;
    if (auto err = in.readHeader(testMagic, 1, 1, &version))
        return err;
    return readParameterRecords(in, params);
}

TEST(SerializeTest, RoundTripsExactly)
{
    Rng rng_a(1);
    auto source = makeMlp(4, {8, 8}, 2, rng_a);
    const std::string bytes = recordsOf(source->parameters());

    Rng rng_b(999);
    auto target = makeMlp(4, {8, 8}, 2, rng_b);
    // Different init, so outputs differ before loading.
    Matrix x(1, 4, {1.0, -1.0, 0.5, 2.0});
    EXPECT_FALSE(source->forward(x) == target->forward(x));

    ASSERT_FALSE(readInto(bytes, target->parameters()));
    EXPECT_TRUE(source->forward(x) == target->forward(x));
}

TEST(SerializeTest, ShapeMismatchIsStructuredError)
{
    Rng rng(1);
    auto source = makeMlp(4, {8}, 2, rng);
    const std::string bytes = recordsOf(source->parameters());
    auto other = makeMlp(4, {16}, 2, rng);
    const auto err = readInto(bytes, other->parameters());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadError::Kind::ShapeMismatch);
    EXPECT_NE(err->message.find("mismatch"), std::string::npos);
}

TEST(SerializeTest, ParameterCountMismatchIsStructuredError)
{
    Rng rng(1);
    auto source = makeMlp(4, {8}, 2, rng);
    const std::string bytes = recordsOf(source->parameters());
    auto deeper = makeMlp(4, {8, 8}, 2, rng);
    const auto err = readInto(bytes, deeper->parameters());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadError::Kind::ShapeMismatch);
    EXPECT_NE(err->message.find("parameter"), std::string::npos);
}

TEST(SerializeTest, RejectsNonModelFile)
{
    // A framed stream whose first record is not a parameter count.
    RecordWriter out(testMagic, 1);
    ByteBuffer garbage;
    garbage.putString("garbage42");
    out.writeRecord(garbage);
    Rng rng(1);
    auto net = makeMlp(2, {4}, 1, rng);
    const auto err = readInto(out.bytes(), net->parameters());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadError::Kind::Malformed);
}

TEST(SerializeTest, ErrorDescribesFile)
{
    Rng rng(1);
    auto source = makeMlp(2, {4}, 1, rng);
    auto other = makeMlp(2, {8}, 1, rng);
    const auto err = readInto(recordsOf(source->parameters()),
                              other->parameters(), "weights.bin");
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->describe().find("weights.bin"), std::string::npos);
}

} // namespace
} // namespace vaesa::nn
