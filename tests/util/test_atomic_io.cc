/** @file Unit tests for crash-safe I/O and the record framing. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../common/hex.hh"
#include "../common/temp_path.hh"
#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

class AtomicIoTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_atomic", ".bin");
    }

    void
    TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(tempPath().c_str());
        std::remove((tempPath() + ".tmp").c_str());
        std::remove(previousCheckpointPath(tempPath()).c_str());
    }
};

TEST(Crc32, KnownAnswer)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // Sensitivity: one flipped bit changes the sum.
    EXPECT_NE(crc32("123456788", 9), crc32("123456789", 9));
}

/** The one-table, one-byte-per-step CRC-32 the sliced one replaces. */
std::uint32_t
bytewiseCrc32(const unsigned char *bytes, std::size_t size)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewise)
{
    // Every length across several 8-byte blocks, from every start
    // alignment, so each head/body/tail split of the sliced loop runs.
    Rng rng(20261020);
    std::vector<unsigned char> bytes(300 + 8);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 300; ++len)
            ASSERT_EQ(crc32(bytes.data() + offset, len),
                      bytewiseCrc32(bytes.data() + offset, len))
                << "offset " << offset << " length " << len;
}

TEST(RecordFraming, FileImageIsUnchanged)
{
    // Every checkpoint, dataset and model file is built from these
    // records: the image must not move by a byte.
    RecordWriter writer(0x56414553u, 2);
    ByteBuffer fields;
    fields.putU32(0xDEADBEEFu);
    fields.putU64(0x0123456789ABCDEFull);
    fields.putF64(-2.5e300);
    fields.putString("vaesa");
    const unsigned char raw[3] = {1, 2, 3};
    fields.putBytes(raw, sizeof(raw));
    writer.writeRecord(fields);
    writer.writeRecord(ByteBuffer());
    ByteBuffer tail;
    tail.putF64(0.1);
    writer.writeRecord(tail);
    EXPECT_EQ(testing::hex(writer.bytes()),
              "53454156020000002400000056d0b50aefbeaddeefcdab8967452301"
              "039300aa4bdd4dfe0500000000000000766165736101020300000000"
              "0000000008000000c853a6f69a9999999999b93f");
}

TEST(ByteBufferReader, RoundTripsAllFieldTypes)
{
    ByteBuffer buf;
    buf.putU32(0xDEADBEEFu);
    buf.putU64(0x0123456789ABCDEFull);
    buf.putF64(-2.5e300);
    buf.putString("hello, framing");
    const unsigned char raw[3] = {1, 2, 3};
    buf.putBytes(raw, sizeof(raw));

    ByteReader in(buf.data().data(), buf.size());
    EXPECT_EQ(in.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(in.getF64(), -2.5e300);
    EXPECT_EQ(in.getString(), "hello, framing");
    unsigned char back[3] = {};
    EXPECT_TRUE(in.getBytes(back, sizeof(back)));
    EXPECT_EQ(back[2], 3);
    EXPECT_TRUE(in.atEnd());
    EXPECT_FALSE(in.failed());
}

TEST(ByteBufferReader, OverrunSetsStickyFailure)
{
    ByteBuffer buf;
    buf.putU32(7);
    ByteReader in(buf.data().data(), buf.size());
    EXPECT_EQ(in.getU32(), 7u);
    EXPECT_EQ(in.getU64(), 0u); // past the end
    EXPECT_TRUE(in.failed());
    EXPECT_EQ(in.getU32(), 0u); // stays failed
    EXPECT_TRUE(in.failed());
    EXPECT_FALSE(in.atEnd());
}

TEST(ByteBufferReader, HugeStringLengthIsCorruption)
{
    // A flipped length field must not drive a huge allocation.
    ByteBuffer buf;
    buf.putU64(1ull << 40);
    ByteReader in(buf.data().data(), buf.size());
    EXPECT_EQ(in.getString(), "");
    EXPECT_TRUE(in.failed());
}

TEST(RecordFraming, RoundTripsRecords)
{
    RecordWriter writer(0xABCD1234u, 3);
    ByteBuffer a;
    a.putU32(11);
    writer.writeRecord(a);
    ByteBuffer b;
    b.putString("second record");
    writer.writeRecord(b);

    RecordReader reader(writer.bytes(), "mem");
    std::uint32_t version = 0;
    EXPECT_FALSE(reader.readHeader(0xABCD1234u, 1, 3, &version));
    EXPECT_EQ(version, 3u);
    auto first = reader.readRecord();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), a.data());
    auto second = reader.readRecord();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value(), b.data());
    EXPECT_TRUE(reader.atEnd());
}

TEST(RecordFraming, WrongMagicAndVersionAreStructured)
{
    RecordWriter writer(0xABCD1234u, 9);
    const std::string &bytes = writer.bytes();

    RecordReader wrong_magic(bytes, "mem");
    std::uint32_t version = 0;
    auto err = wrong_magic.readHeader(0x11111111u, 1, 9, &version);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadError::Kind::BadMagic);

    RecordReader wrong_version(bytes, "mem");
    err = wrong_version.readHeader(0xABCD1234u, 1, 8, &version);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadError::Kind::BadVersion);
}

TEST(RecordFraming, FlippedPayloadByteFailsChecksum)
{
    RecordWriter writer(0xABCD1234u, 1);
    ByteBuffer payload;
    payload.putString("precious weights");
    writer.writeRecord(payload);

    std::string bytes = writer.bytes();
    bytes[bytes.size() - 3] ^= 0x40; // flip one payload bit

    RecordReader reader(bytes, "mem");
    std::uint32_t version = 0;
    ASSERT_FALSE(reader.readHeader(0xABCD1234u, 1, 1, &version));
    auto record = reader.readRecord();
    ASSERT_FALSE(record.ok());
    EXPECT_EQ(record.error().kind, LoadError::Kind::BadChecksum);
}

TEST(RecordFraming, TruncationIsStructured)
{
    RecordWriter writer(0xABCD1234u, 1);
    ByteBuffer payload;
    payload.putString("precious weights");
    writer.writeRecord(payload);

    const std::string truncated =
        writer.bytes().substr(0, writer.bytes().size() - 4);
    RecordReader reader(truncated, "mem");
    std::uint32_t version = 0;
    ASSERT_FALSE(reader.readHeader(0xABCD1234u, 1, 1, &version));
    auto record = reader.readRecord();
    ASSERT_FALSE(record.ok());
    EXPECT_EQ(record.error().kind, LoadError::Kind::Truncated);
}

TEST_F(AtomicIoTest, WriteThenReadBack)
{
    ASSERT_FALSE(atomicWriteFile(tempPath(), "payload bytes"));
    auto bytes = readFileBytes(tempPath());
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), "payload bytes");
}

TEST_F(AtomicIoTest, MissingFileReportsOpenFailed)
{
    auto bytes = readFileBytes(::testing::TempDir() +
                               "/definitely_missing.bin");
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.error().kind, LoadError::Kind::OpenFailed);
}

TEST_F(AtomicIoTest, InjectedWriteFaultLeavesOldFileIntact)
{
    // The io_write site models a crash mid-write: the call dies
    // before any byte reaches the destination path.
    ASSERT_FALSE(atomicWriteFile(tempPath(), "old good content"));
    FaultInjector::instance().arm("io_write", 1);
    EXPECT_THROW(atomicWriteFile(tempPath(), "new content"),
                 InjectedFault);
    FaultInjector::instance().reset();
    auto bytes = readFileBytes(tempPath());
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), "old good content");
}

TEST_F(AtomicIoTest, RotationKeepsPreviousCheckpoint)
{
    ASSERT_FALSE(atomicWriteFileWithRotation(tempPath(), "v1"));
    ASSERT_FALSE(atomicWriteFileWithRotation(tempPath(), "v2"));
    auto primary = readFileBytes(tempPath());
    auto previous =
        readFileBytes(previousCheckpointPath(tempPath()));
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE(previous.ok());
    EXPECT_EQ(primary.value(), "v2");
    EXPECT_EQ(previous.value(), "v1");
}

TEST_F(AtomicIoTest, FallbackLoadsPreviousWhenPrimaryCorrupt)
{
    ASSERT_FALSE(atomicWriteFileWithRotation(tempPath(), "good v1"));
    ASSERT_FALSE(atomicWriteFileWithRotation(tempPath(), "good v2"));
    // Clobber the primary (rotation already preserved v1 in .prev).
    ASSERT_FALSE(atomicWriteFile(tempPath(), "CORRUPT"));

    auto loader = [](const std::string &p) -> Expected<std::string> {
        auto bytes = readFileBytes(p);
        if (!bytes.ok())
            return bytes.error();
        if (bytes.value() == "CORRUPT")
            return makeLoadError(LoadError::Kind::BadChecksum, p, 0,
                                 "corrupt");
        return bytes.value();
    };
    auto result = loadWithFallback<std::string>(tempPath(), loader);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), "good v1");
}

TEST_F(AtomicIoTest, FallbackReturnsPrimaryErrorWhenBothFail)
{
    ASSERT_FALSE(atomicWriteFile(tempPath(), "CORRUPT"));
    auto loader = [](const std::string &p) -> Expected<std::string> {
        auto bytes = readFileBytes(p);
        if (!bytes.ok())
            return bytes.error();
        return makeLoadError(LoadError::Kind::BadChecksum, p, 0,
                             "corrupt");
    };
    auto result = loadWithFallback<std::string>(tempPath(), loader);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadError::Kind::BadChecksum);
    EXPECT_EQ(result.error().file, tempPath());
}

} // namespace
} // namespace vaesa
