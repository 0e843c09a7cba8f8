#include "util/atomic_io.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/fault.hh"
#include "util/logging.hh"

namespace vaesa {

namespace {

namespace fs = std::filesystem;

/**
 * Slice-by-8 CRC-32 tables (IEEE polynomial, reflected): row 0 is the
 * classic one-byte table, and row k advances a byte's contribution
 * past k more zero bytes, so eight table lookups fold in eight bytes.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
        return t;
    }();
    return tables;
}

/** Store @p value little-endian into 4 raw bytes. */
void
encodeU32(char *p, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
}

/** Append a little-endian u32 to a byte string. */
void
appendU32(std::string &out, std::uint32_t value)
{
    char bytes[4];
    encodeU32(bytes, value);
    out.append(bytes, sizeof(bytes));
}

/** Decode a little-endian u32 from 4 raw bytes. */
std::uint32_t
decodeU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    const CrcTables &t = crcTables();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; size -= 8, bytes += 8) {
        const std::uint32_t lo = crc ^ decodeU32(bytes);
        const std::uint32_t hi = decodeU32(bytes + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; --size, ++bytes)
        crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

void
ByteBuffer::putU32(std::uint32_t value)
{
    appendU32(bytes_, value);
}

void
ByteBuffer::putU64(std::uint64_t value)
{
    char bytes[8];
    encodeU32(bytes, static_cast<std::uint32_t>(value));
    encodeU32(bytes + 4, static_cast<std::uint32_t>(value >> 32));
    bytes_.append(bytes, sizeof(bytes));
}

void
ByteBuffer::putF64(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    putU64(bits);
}

void
ByteBuffer::putString(const std::string &value)
{
    putU64(value.size());
    bytes_.append(value);
}

void
ByteBuffer::putBytes(const void *data, std::size_t size)
{
    bytes_.append(static_cast<const char *>(data), size);
}

ByteReader::ByteReader(const void *data, std::size_t size)
    : data_(static_cast<const unsigned char *>(data)), size_(size)
{
}

std::uint32_t
ByteReader::getU32()
{
    if (failed_ || size_ - cursor_ < 4) {
        failed_ = true;
        return 0;
    }
    const std::uint32_t value = decodeU32(data_ + cursor_);
    cursor_ += 4;
    return value;
}

std::uint64_t
ByteReader::getU64()
{
    const std::uint64_t lo = getU32();
    const std::uint64_t hi = getU32();
    return lo | (hi << 32);
}

double
ByteReader::getF64()
{
    const std::uint64_t bits = getU64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return failed_ ? 0.0 : value;
}

std::string
ByteReader::getString(std::size_t maxLen)
{
    const std::uint64_t len = getU64();
    if (failed_ || len > maxLen || size_ - cursor_ < len) {
        failed_ = true;
        return {};
    }
    std::string value(reinterpret_cast<const char *>(data_ + cursor_),
                      static_cast<std::size_t>(len));
    cursor_ += static_cast<std::size_t>(len);
    return value;
}

bool
ByteReader::getBytes(void *dst, std::size_t size)
{
    if (failed_ || size_ - cursor_ < size) {
        failed_ = true;
        return false;
    }
    std::memcpy(dst, data_ + cursor_, size);
    cursor_ += size;
    return true;
}

RecordWriter::RecordWriter(std::uint32_t magic, std::uint32_t version)
{
    appendU32(out_, magic);
    appendU32(out_, version);
}

void
RecordWriter::writeRecord(const ByteBuffer &payload)
{
    writeRecord(payload.data());
}

void
RecordWriter::writeRecord(std::string_view payload)
{
    if (payload.size() > maxRecordPayload)
        panic("RecordWriter: record payload of ", payload.size(),
              " bytes exceeds the ", maxRecordPayload, " cap");
    char head[8];
    encodeU32(head, static_cast<std::uint32_t>(payload.size()));
    encodeU32(head + 4, crc32(payload.data(), payload.size()));
    const std::size_t need = out_.size() + sizeof(head) + payload.size();
    if (need > out_.capacity())
        out_.reserve(std::max(need, 2 * out_.capacity()));
    out_.append(head, sizeof(head));
    out_.append(payload);
}

RecordReader::RecordReader(const std::string &bytes, std::string file)
    : bytes_(bytes), file_(std::move(file))
{
}

LoadError
RecordReader::makeError(LoadError::Kind kind,
                        const std::string &message) const
{
    return makeLoadError(kind, file_, 0, message);
}

std::optional<LoadError>
RecordReader::readHeader(std::uint32_t magic, std::uint32_t minVersion,
                         std::uint32_t maxVersion,
                         std::uint32_t *version)
{
    if (bytes_.size() < 8)
        return makeError(LoadError::Kind::Truncated,
                         "file too short for a format header");
    const auto *p =
        reinterpret_cast<const unsigned char *>(bytes_.data());
    const std::uint32_t gotMagic = decodeU32(p);
    const std::uint32_t gotVersion = decodeU32(p + 4);
    if (gotMagic != magic)
        return makeError(LoadError::Kind::BadMagic,
                         "magic word mismatch (not the expected "
                         "format, or the header is corrupt)");
    if (gotVersion < minVersion || gotVersion > maxVersion)
        return makeError(LoadError::Kind::BadVersion,
                         "unsupported format version " +
                             std::to_string(gotVersion));
    if (version)
        *version = gotVersion;
    cursor_ = 8;
    return std::nullopt;
}

Expected<std::string>
RecordReader::readRecord()
{
    if (bytes_.size() - cursor_ < 8)
        return makeError(LoadError::Kind::Truncated,
                         "input ends inside a record frame");
    const auto *p =
        reinterpret_cast<const unsigned char *>(bytes_.data()) +
        cursor_;
    const std::uint32_t size = decodeU32(p);
    const std::uint32_t crc = decodeU32(p + 4);
    if (size > maxRecordPayload)
        return makeError(LoadError::Kind::Malformed,
                         "record length " + std::to_string(size) +
                             " exceeds the format cap (corrupt "
                             "length field)");
    if (bytes_.size() - cursor_ - 8 < size)
        return makeError(LoadError::Kind::Truncated,
                         "input ends inside a record payload");
    const char *payload = bytes_.data() + cursor_ + 8;
    if (crc32(payload, size) != crc)
        return makeError(LoadError::Kind::BadChecksum,
                         "record checksum mismatch (corrupt "
                         "payload)");
    cursor_ += 8 + size;
    return std::string(payload, size);
}

Expected<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return makeLoadError(LoadError::Kind::OpenFailed, path, 0,
                             "cannot open file for reading");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return makeLoadError(LoadError::Kind::OpenFailed, path, 0,
                             "read error while loading file");
    return buffer.str();
}

std::optional<LoadError>
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    const std::string temp = path + ".tmp";
    {
        // The fault site models a crash inside the data write: the
        // temp file may be torn, but `path` is never touched.
        faultCheck("io_write");
        std::FILE *f = std::fopen(temp.c_str(), "wb");
        if (!f)
            return makeLoadError(LoadError::Kind::WriteFailed, temp,
                                 0, "cannot open temp file: " +
                                        std::string(
                                            std::strerror(errno)));
        const std::size_t written =
            bytes.empty() ? 0
                          : std::fwrite(bytes.data(), 1, bytes.size(),
                                        f);
        const bool flushed = std::fflush(f) == 0;
        const bool synced = ::fsync(fileno(f)) == 0;
        const bool closed = std::fclose(f) == 0;
        if (written != bytes.size() || !flushed || !synced ||
            !closed) {
            std::remove(temp.c_str());
            return makeLoadError(LoadError::Kind::WriteFailed, temp,
                                 0, "short write or flush failure");
        }
    }
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
        std::remove(temp.c_str());
        return makeLoadError(LoadError::Kind::WriteFailed, path, 0,
                             "rename failed: " + ec.message());
    }
    return std::nullopt;
}

std::string
previousCheckpointPath(const std::string &path)
{
    return path + ".prev";
}

std::optional<LoadError>
atomicWriteFileWithRotation(const std::string &path,
                            const std::string &bytes)
{
    // Write the new checkpoint fully (to a distinct temp so a crash
    // here leaves both existing copies intact), then rotate: primary
    // becomes .prev, the new file becomes primary. Every intermediate
    // state keeps at least one complete checkpoint loadable via the
    // primary-then-.prev fallback.
    const std::string staged = path + ".next";
    if (auto err = atomicWriteFile(staged, bytes))
        return err;

    std::error_code ec;
    if (fs::exists(path, ec)) {
        faultCheck("checkpoint_rotate");
        fs::rename(path, previousCheckpointPath(path), ec);
        if (ec)
            return makeLoadError(LoadError::Kind::WriteFailed, path,
                                 0, "rotation rename failed: " +
                                        ec.message());
    }
    fs::rename(staged, path, ec);
    if (ec)
        return makeLoadError(LoadError::Kind::WriteFailed, path, 0,
                             "final rename failed: " + ec.message());
    return std::nullopt;
}

} // namespace vaesa
