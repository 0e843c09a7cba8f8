/**
 * @file
 * Minimal socket layer for the serve daemon: RAII descriptors,
 * Unix/loopback-TCP listeners, and framed send/receive.
 *
 * This header's implementation (net.cc) is the ONLY translation unit
 * in the tree allowed to touch raw POSIX socket calls -- vaesa_check
 * enforces the confinement, the same way raw std::thread is confined
 * to the thread pool. Everything above this layer speaks in complete
 * protocol frames and Expected<> errors.
 *
 * Fault sites (deterministic, ctest-drivable via VAESA_FAULT):
 *   serve_accept       an accept() that fails mid-storm
 *   serve_frame_read   a connection dying mid-request
 *   serve_frame_write  a connection dying mid-response
 */

#ifndef VAESA_SERVE_NET_HH
#define VAESA_SERVE_NET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "util/deadline.hh"
#include "util/load_error.hh"

namespace vaesa {
namespace serve {

class FrameReader;

/**
 * Move-only RAII owner of one socket descriptor and of its read
 * buffer: the bytes a frame read received past the end of its frame
 * (the start of the next frames), which the next recvFrame() takes
 * before it calls recv() again. Moving carries the buffer; close()
 * drops it.
 */
class Socket
{
  public:
    /** An empty (invalid) socket. */
    Socket() = default;

    /** Take ownership of @p fd (-1 = invalid). */
    explicit Socket(int fd) : fd_(fd) {}

    ~Socket() { close(); }

    Socket(Socket &&other) noexcept
        : fd_(std::exchange(other.fd_, -1)),
          received_(std::exchange(other.received_, {}))
    {
    }

    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = std::exchange(other.fd_, -1);
            received_ = std::exchange(other.received_, {});
        }
        return *this;
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    /** The raw descriptor (-1 when invalid). */
    int fd() const { return fd_; }

    /** True when a descriptor is owned. */
    bool valid() const { return fd_ >= 0; }

    /** Close the descriptor now and drop any buffered bytes
     *  (idempotent). */
    void close();

  private:
    friend class FrameReader;

    /** Received bytes not yet handed out: [begin, end) of bytes. */
    struct Received
    {
        /** Allocated by the first frame read that buffers. */
        std::unique_ptr<char[]> bytes;
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    int fd_ = -1;
    /** Mutable like the kernel receive queue, which a read through a
     *  const Socket drains too. */
    mutable Received received_;
};

/** Bind + listen on a Unix-domain socket path (unlinking any stale
 *  socket file first). */
Expected<Socket> listenUnix(const std::string &path);

/** Bind + listen on loopback TCP. @param port 0 picks an ephemeral
 *  port; read it back with boundPort(). */
Expected<Socket> listenTcp(std::uint16_t port);

/** The local port a TCP listener actually bound. */
Expected<std::uint16_t> boundPort(const Socket &listener);

/** Connect to a loopback TCP listener. */
Expected<Socket> connectTcp(std::uint16_t port);

/**
 * Wait until @p socket's descriptor is readable. Bytes a frame read
 * left in the socket's read buffer do not count.
 * @return 1 ready, 0 timeout, -1 error/hangup-with-nothing-to-read.
 */
int waitReadable(const Socket &socket, int timeoutMs);

/** Accept one pending connection (call after waitReadable() said
 *  ready). Hits the `serve_accept` fault site. */
Expected<Socket> acceptConnection(const Socket &listener);

/**
 * Send one complete frame image. Hits `serve_frame_write` first, so
 * a test can kill any response mid-write. Partial sends are retried
 * until the frame is fully on the wire.
 */
std::optional<LoadError> sendFrame(const Socket &socket,
                                   const std::string &frame);

/**
 * Receive one complete frame image (16-byte frame prefix, then the
 * payload). Bytes left in the socket's read buffer by the previous
 * read come first. When they do not hold the frame, one recv() asks
 * for up to a few KiB, so a whole request or reply normally arrives
 * in one call, and whatever lands past this frame stays buffered for
 * the next read.
 *
 * Each wait for bytes first tries non-blocking recv()s, yielding the
 * CPU between tries, for a short fixed window (spin then block): a
 * reply that lands within it is read without the reader sleeping and
 * being woken. A process whose CPU affinity holds one CPU does not
 * spin. After the window the read blocks in poll() slices of at most
 * @p sliceMs so the @p cancel token (when given) is observed between
 * slices -- a draining server stops waiting on idle connections
 * promptly. The token is also checked before anything is read, so an
 * expired token consumes no byte, buffered ones included.
 *
 * The idle timeout is accounted against the MONOTONIC CLOCK, not by
 * counting slices: poll/recv interruptions (EINTR, EAGAIN) are
 * charged the real time they consumed, so a signal-stormed
 * connection neither times out early nor overstays -- each of the
 * two reads (prefix, payload) that has to wait ends within
 * [timeoutMs, timeoutMs + one slice) of its last byte of progress.
 *
 * @return the frame bytes; OpenFailed with message "closed" on a
 *         clean peer close before any byte, Truncated on a mid-frame
 *         close, OpenFailed "timeout" after @p timeoutMs of silence,
 *         OpenFailed "cancelled" when the token expired. Hits
 *         `serve_frame_read` first.
 */
Expected<std::string> recvFrame(const Socket &socket, int timeoutMs,
                                const CancelToken *cancel = nullptr,
                                int sliceMs = 100);

} // namespace serve
} // namespace vaesa

#endif // VAESA_SERVE_NET_HH
