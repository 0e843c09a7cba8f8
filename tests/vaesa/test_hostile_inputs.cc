/**
 * @file
 * Hostile-but-well-framed inputs: files whose magic, version, and
 * record CRCs are all valid while the *content* lies about its own
 * size or shape. The corruption matrix (test_corruption.cc) covers
 * random damage; these cases pin the specific resource-exhaustion
 * bugs the fuzz harnesses (tools/fuzz/) surfaced — declared model
 * dimensions that drive enormous allocations, and length prefixes
 * larger than the record that backs them. Each must come back as a
 * structured Malformed error, quickly and without a crash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "../common/temp_path.hh"
#include "nn/optim.hh"
#include "util/atomic_io.hh"
#include "util/state_io.hh"
#include "vaesa/checkpoint.hh"
#include "vaesa/serialize.hh"
#include "dse/search_state.hh"

namespace vaesa {
namespace {

// Mirrors of the (file-local) format constants; the formats are
// frozen, so a drift here means a deliberate format break.
constexpr std::uint32_t frameworkMagic = 0x56534657;  // "VSFW"
constexpr std::uint32_t frameworkVersion = 2;
constexpr std::uint32_t checkpointMagic = 0x56434B50; // "VCKP"
constexpr std::uint32_t checkpointVersion = 1;
constexpr std::uint32_t searchMagic = 0x56535243;     // "VSRC"
constexpr std::uint32_t searchVersion = 1;

class HostileInputTest : public ::testing::Test
{
  protected:
    std::string
    path()
    {
        return testing::uniqueTempPath("vaesa_hostile", ".bin");
    }

    void
    TearDown() override
    {
        std::remove(path().c_str());
    }

    void
    write(const RecordWriter &out)
    {
        ASSERT_FALSE(atomicWriteFile(path(), out.bytes()));
    }

    /** Valid framework options record with the given dimensions. */
    static ByteBuffer
    optionsPayload(std::uint64_t input_dim, std::uint64_t hidden,
                   std::uint64_t latent_dim, double slope)
    {
        ByteBuffer payload;
        payload.putU64(input_dim);
        payload.putU64(1); // one hidden layer
        payload.putU64(hidden);
        payload.putU64(latent_dim);
        payload.putF64(slope);
        payload.putU64(0); // no predictor hidden layers
        return payload;
    }
};

TEST_F(HostileInputTest, FrameworkRejectsHugeInputDim)
{
    RecordWriter out(frameworkMagic, frameworkVersion);
    // 2^40 inputs: constructing the model would allocate terabytes
    // (or overflow rows * cols) before any shape check ran.
    out.writeRecord(optionsPayload(std::uint64_t{1} << 40, 8, 2,
                                   0.01));
    write(out);
    const auto loaded = loadFramework(path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
}

TEST_F(HostileInputTest, FrameworkRejectsHugeHiddenWidth)
{
    RecordWriter out(frameworkMagic, frameworkVersion);
    // getSizes caps the list LENGTH at 64 but used to let any
    // element VALUE through to the layer constructors.
    out.writeRecord(optionsPayload(6, std::uint64_t{1} << 50, 2,
                                   0.01));
    write(out);
    const auto loaded = loadFramework(path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
}

TEST_F(HostileInputTest, FrameworkRejectsZeroAndNonFiniteOptions)
{
    {
        RecordWriter out(frameworkMagic, frameworkVersion);
        out.writeRecord(optionsPayload(0, 8, 2, 0.01));
        write(out);
        const auto loaded = loadFramework(path());
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
    }
    {
        RecordWriter out(frameworkMagic, frameworkVersion);
        out.writeRecord(optionsPayload(
            6, 8, 2, std::numeric_limits<double>::infinity()));
        write(out);
        const auto loaded = loadFramework(path());
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
    }
}

TEST_F(HostileInputTest, CheckpointRejectsHistoryBeyondPayload)
{
    RecordWriter out(checkpointMagic, checkpointVersion);
    ByteBuffer meta;
    meta.putU64(3); // epochs done
    putRngState(meta, RngState{});
    // Declares 2^24 epoch-stat entries (the documented cap) while
    // backing exactly none of them: the loader used to reserve()
    // ~670 MB for the vector before noticing the record ends.
    meta.putU64(std::uint64_t{1} << 24);
    out.writeRecord(meta);
    write(out);
    nn::Adam optimizer({});
    const auto loaded = loadTrainCheckpoint(path(), optimizer);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
}

TEST_F(HostileInputTest, SearchSnapshotRejectsTraceBeyondPayload)
{
    RecordWriter out(searchMagic, searchVersion);
    ByteBuffer meta;
    meta.putU32(1); // SearchDriver::Random
    putRngState(meta, RngState{});
    out.writeRecord(meta);
    ByteBuffer trace;
    // Declares 2^26 trace points backed by zero payload bytes; the
    // loader used to reserve() the full multi-gigabyte vector first.
    trace.putU64(std::uint64_t{1} << 26);
    out.writeRecord(trace);
    write(out);
    const auto loaded =
        loadSearchSnapshot(path(), SearchDriver::Random);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
}

} // namespace
} // namespace vaesa
