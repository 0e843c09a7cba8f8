/**
 * @file
 * Crash-safe file I/O and the checksummed record framing shared by
 * every binary format in the tree.
 *
 * Writes go write-to-temp + flush + fsync + atomic-rename, so a crash
 * at any instruction leaves either the complete old file or the
 * complete new file -- never a torn one. Checkpoint-style files add
 * one level of rotation (`path` + `path.prev`): the previous good
 * copy survives until the new one is durably in place, and loaders
 * fall back to it when the primary is corrupt or missing.
 *
 * The record framing gives each format the same on-disk skeleton:
 *
 *   file   := header record*
 *   header := magic:u32 version:u32
 *   record := payloadSize:u32 crc32(payload):u32 payload
 *
 * so corruption anywhere (bit flip, truncation, foreign file) is
 * detected at load time and reported as a LoadError instead of being
 * deserialized into silently-wrong tensors.
 */

#ifndef VAESA_UTIL_ATOMIC_IO_HH
#define VAESA_UTIL_ATOMIC_IO_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/load_error.hh"

namespace vaesa {

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Little-endian binary serialization buffer: build a record payload
 * in memory, then hand it to RecordWriter::writeRecord().
 */
class ByteBuffer
{
  public:
    /** Append a 32-bit unsigned value. */
    void putU32(std::uint32_t value);

    /** Append a 64-bit unsigned value. */
    void putU64(std::uint64_t value);

    /** Append a double (IEEE-754 bit pattern). */
    void putF64(double value);

    /** Append a length-prefixed string (u64 length + bytes). */
    void putString(const std::string &value);

    /** Append raw bytes. */
    void putBytes(const void *data, std::size_t size);

    /** Make room for @p bytes in total, so appends up to that size
     *  do not reallocate. */
    void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

    /** The accumulated payload. */
    const std::string &data() const { return bytes_; }

    /** Move the accumulated payload out, leaving the buffer empty. */
    std::string release() { return std::exchange(bytes_, {}); }

    /** Payload size in bytes. */
    std::size_t size() const { return bytes_.size(); }

  private:
    std::string bytes_;
};

/**
 * Bounds-checked cursor over one record payload. Reads past the end
 * set a sticky failure flag and return zeros; callers check failed()
 * once after a batch of reads instead of after every field.
 */
class ByteReader
{
  public:
    /** Read from an in-memory payload (not owned; must outlive). */
    ByteReader(const void *data, std::size_t size);

    /** Read a 32-bit unsigned value (0 and failed() on overrun). */
    std::uint32_t getU32();

    /** Read a 64-bit unsigned value (0 and failed() on overrun). */
    std::uint64_t getU64();

    /** Read a double (0.0 and failed() on overrun). */
    double getF64();

    /**
     * Read a length-prefixed string. Lengths above maxLen are treated
     * as corruption (failed() is set) so a flipped length byte cannot
     * drive a huge allocation.
     */
    std::string getString(std::size_t maxLen = 1 << 16);

    /** Copy size raw bytes into dst (false + failed() on overrun). */
    bool getBytes(void *dst, std::size_t size);

    /** True once any read ran past the payload end. */
    bool failed() const { return failed_; }

    /** True when the cursor consumed the payload exactly. */
    bool atEnd() const { return !failed_ && cursor_ == size_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - cursor_; }

  private:
    const unsigned char *data_;
    std::size_t size_;
    std::size_t cursor_ = 0;
    bool failed_ = false;
};

/** Sanity cap on one record's payload (a flipped length field must
 *  not drive a multi-gigabyte allocation). */
constexpr std::uint32_t maxRecordPayload = 1u << 28;

/**
 * Serializer for the framed file layout. Writes the header once,
 * then length+CRC-framed records. All output goes to an in-memory
 * buffer handed to atomicWriteFile() by the caller, so the file
 * appears atomically.
 */
class RecordWriter
{
  public:
    /** Start a framed file with the given magic and version. */
    RecordWriter(std::uint32_t magic, std::uint32_t version);

    /** Append one framed record. */
    void writeRecord(const ByteBuffer &payload);

    /** Append one framed record holding @p payload's bytes. */
    void writeRecord(std::string_view payload);

    /** The complete serialized file image. */
    const std::string &bytes() const { return out_; }

    /** Move the serialized image out, leaving the writer empty. */
    std::string release() { return std::exchange(out_, {}); }

  private:
    std::string out_;
};

/**
 * Deserializer for the framed file layout. Validates the header and
 * then yields one verified payload per readRecord() call.
 */
class RecordReader
{
  public:
    /**
     * Wrap a complete file image.
     * @param bytes file contents (not owned; must outlive).
     * @param file name used in LoadError reports.
     */
    RecordReader(const std::string &bytes, std::string file);

    /**
     * Validate magic/version.
     * @param magic expected magic word.
     * @param minVersion lowest supported version.
     * @param maxVersion highest supported version.
     * @param version out: the version found (when header is intact).
     */
    std::optional<LoadError> readHeader(std::uint32_t magic,
                                        std::uint32_t minVersion,
                                        std::uint32_t maxVersion,
                                        std::uint32_t *version);

    /**
     * Read and verify the next record.
     * @return the payload, or a LoadError on truncation/corruption.
     */
    Expected<std::string> readRecord();

    /** True when every byte of the file has been consumed. */
    bool atEnd() const { return cursor_ == bytes_.size(); }

    /** Build a LoadError naming this reader's file. */
    LoadError makeError(LoadError::Kind kind,
                        const std::string &message) const;

  private:
    const std::string &bytes_;
    std::string file_;
    std::size_t cursor_ = 0;
};

/** Read a whole file into memory (OpenFailed on any problem). */
Expected<std::string> readFileBytes(const std::string &path);

/**
 * Crash-safe whole-file write: the bytes land in `path + ".tmp"`,
 * are flushed and fsync'd, and the temp is atomically renamed onto
 * path. Any failure (including an injected `io_write` fault) leaves
 * the previous file untouched.
 * @return nullopt on success, a WriteFailed LoadError otherwise.
 */
std::optional<LoadError> atomicWriteFile(const std::string &path,
                                         const std::string &bytes);

/**
 * Checkpoint-style write with last-good rotation: the new bytes are
 * written atomically to a temp file, the current `path` (if any) is
 * renamed to `path.prev`, and the temp is renamed to `path`. A crash
 * at any point leaves at least one complete checkpoint on disk.
 */
std::optional<LoadError>
atomicWriteFileWithRotation(const std::string &path,
                            const std::string &bytes);

/** The rotated sibling of a checkpoint path. */
std::string previousCheckpointPath(const std::string &path);

/**
 * Load `path` with automatic fallback to `path.prev`: when the
 * primary is missing or corrupt but the rotated copy loads, the
 * fallback result is returned and a warning is logged. When both
 * fail, the PRIMARY error is returned (it is the authoritative one).
 *
 * @param loader callable: const std::string& -> Expected<T>.
 */
template <typename T, typename Loader>
Expected<T>
loadWithFallback(const std::string &path, Loader &&loader)
{
    Expected<T> primary = loader(path);
    if (primary.ok())
        return primary;
    Expected<T> previous = loader(previousCheckpointPath(path));
    if (previous.ok()) {
        warn("falling back to '", previousCheckpointPath(path),
             "': ", primary.error().describe());
        return previous;
    }
    return primary;
}

} // namespace vaesa

#endif // VAESA_UTIL_ATOMIC_IO_HH
