#include "serve/net.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace vaesa {
namespace serve {

namespace {

LoadError
netError(LoadError::Kind kind, const std::string &what)
{
    return makeLoadError(kind, "", 0,
                         what + ": " + std::strerror(errno));
}

LoadError
netFailure(LoadError::Kind kind, std::string message)
{
    return makeLoadError(kind, "", 0, std::move(message));
}

/**
 * How long a read tries non-blocking recv()s before it sleeps in
 * poll(). Long enough to cover a loopback request/reply turnaround
 * (a warm ScoreConfig round trip is 20-30 us with spinning on both
 * ends; a 20 us window misses most replies), short enough that a
 * reader waiting on a slow or idle peer gives up its CPU quickly;
 * docs/PERFORMANCE.md has the 20/50/100 us sweep.
 */
constexpr std::uint64_t recvSpinWindowNs = 50000;

/**
 * How many bytes a frame read asks one recv() for. A ScoreConfig
 * request or reply is ~100-200 bytes, so one call takes a whole frame
 * and any that follow it on the connection; the largest valid frame
 * (a 4 KiB message or reload path) takes two. The buffer is
 * allocated by the first read of the socket.
 */
constexpr std::size_t readBufferBytes = 4096;

/** Receive-spin outcomes, one per frame read. */
struct RecvSpinMetrics
{
    /** The whole frame arrived without a read sleeping in poll(). */
    metrics::Counter &hits = metrics::counter("serve.recv_spin_hits");
    /** A read of the frame fell through to poll(). */
    metrics::Counter &misses =
        metrics::counter("serve.recv_spin_misses");
};

RecvSpinMetrics &
recvSpinMetrics()
{
    static RecvSpinMetrics m;
    return m;
}

/**
 * True when this process may run on more than one CPU. On one CPU
 * the peer a reader waits for cannot run while it spins. The check
 * sees the affinity mask only: a container held to about one CPU by
 * a cgroup quota, with many CPUs in its mask, still spins. The call
 * fails only when the kernel has more CPUs than a cpu_set_t holds,
 * so a failure counts as many CPUs.
 */
bool
spinCanPay()
{
    static const bool multiCpu = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        return ::sched_getaffinity(0, sizeof(set), &set) != 0 ||
               CPU_COUNT(&set) > 1;
    }();
    return multiCpu;
}

std::uint32_t
loadU32(const char *bytes)
{
    std::uint32_t value = 0;
    std::memcpy(&value, bytes, sizeof(value));
    return value;
}

} // namespace

/**
 * The reads of one frame. Each takes the socket's buffered bytes
 * first. When it needs more, it waits as described below, and each
 * recv() asks for up to readBufferBytes into the socket's buffer:
 * the bytes this read needs are copied out, and any past them stay
 * buffered for the next read.
 */
class FrameReader
{
  public:
    FrameReader(const Socket &socket, int timeoutMs,
                const CancelToken *cancel, int sliceMs)
        : socket_(socket), timeoutMs_(timeoutMs), sliceMs_(sliceMs),
          cancel_(cancel)
    {
    }

    /**
     * Read exactly n bytes into @p dst. An expired token fails the
     * read before it takes any byte. On a host with more than one
     * CPU, first try non-blocking recv()s, yielding between tries,
     * until the bytes are in or recvSpinWindowNs has passed since
     * the call began; then (or straight away on one CPU) poll in
     * slices so cancellation and the overall timeout are both
     * observed between reads. The idle budget is recomputed from the
     * monotonic clock on every wakeup: poll/recv interruptions
     * (EINTR / EAGAIN / spurious readiness) consume real elapsed
     * time rather than being charged a whole slice (a signal storm
     * used to burn the budget in microseconds) or no time at all (an
     * interrupted recv used to restart the slice and could overstay
     * the deadline indefinitely). Progress still resets the idle
     * clock -- timeoutMs bounds the wait since the LAST byte, not the
     * whole read. The spin window counts against the idle budget
     * like any wait.
     */
    std::optional<LoadError> readExactly(char *dst, std::size_t n);

    /** True once a read of this frame has fallen through to poll(). */
    bool polled() const { return polled_; }

  private:
    /** Copy up to @p n buffered bytes into @p dst; the count. */
    std::size_t takeBuffered(char *dst, std::size_t n);

    /**
     * One recv() toward @p n more bytes (the buffer is empty: the
     * read took it first). @return the bytes delivered into @p dst,
     * at most @p n; 0 on peer close; -1 with errno set.
     */
    ssize_t receive(char *dst, std::size_t n, int flags);

    /** The error for a peer close: clean before the frame's first
     *  byte, a truncated frame after it. */
    LoadError closedError() const;

    const Socket &socket_;
    int timeoutMs_;
    int sliceMs_;
    const CancelToken *cancel_;
    /** A read of this frame has fallen through to poll(). */
    bool polled_ = false;
    /** A read of this frame has taken a byte (buffered or not). */
    bool sawAnyByte_ = false;
};

std::optional<LoadError>
FrameReader::readExactly(char *dst, std::size_t n)
{
    if (n == 0)
        return std::nullopt;
    if (cancel_ && cancel_->expired())
        return netFailure(LoadError::Kind::OpenFailed, "cancelled");
    std::size_t got = takeBuffered(dst, n);
    if (got == n)
        return std::nullopt;
    const std::uint64_t budgetNs =
        static_cast<std::uint64_t>(timeoutMs_) * 1000000ull;
    std::uint64_t idleSinceNs = metrics::monotonicNowNs();
    auto advance = [&](ssize_t r) {
        got += static_cast<std::size_t>(r);
        sawAnyByte_ = true;
        idleSinceNs = metrics::monotonicNowNs(); // progress resets
    };
    if (spinCanPay()) {
        const std::uint64_t spinEndNs = idleSinceNs + recvSpinWindowNs;
        while (got < n) {
            const ssize_t r = receive(dst + got, n - got, MSG_DONTWAIT);
            if (r > 0) {
                advance(r);
                continue;
            }
            if (r == 0)
                return closedError();
            if (errno != EINTR && errno != EAGAIN &&
                errno != EWOULDBLOCK)
                return netError(LoadError::Kind::OpenFailed, "recv");
            if (metrics::monotonicNowNs() >= spinEndNs)
                break;
            ::sched_yield();
        }
    }
    if (got < n && !polled_) {
        polled_ = true;
        recvSpinMetrics().misses.inc();
    }
    while (got < n) {
        if (cancel_ && cancel_->expired())
            return netFailure(LoadError::Kind::OpenFailed,
                              "cancelled");
        const std::uint64_t idleNs =
            metrics::monotonicNowNs() - idleSinceNs;
        if (idleNs >= budgetNs)
            return netFailure(LoadError::Kind::OpenFailed,
                              "timeout");
        // Poll the remaining budget, still sliced for cancellation
        // checks; floor 1 ms so a sub-millisecond remainder blocks
        // instead of spinning (the clock check above ends it).
        const int remainMs =
            static_cast<int>((budgetNs - idleNs) / 1000000ull);
        const int ready = waitReadable(
            socket_, std::clamp(remainMs, 1, std::max(1, sliceMs_)));
        if (ready < 0)
            return netFailure(LoadError::Kind::OpenFailed,
                              "poll failed on connection");
        if (ready == 0)
            continue; // timeout or EINTR: the clock above decides
        const ssize_t r = receive(dst + got, n - got, 0);
        if (r == 0)
            return closedError();
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue; // elapsed time stays charged
            return netError(LoadError::Kind::OpenFailed, "recv");
        }
        advance(r);
    }
    return std::nullopt;
}

std::size_t
FrameReader::takeBuffered(char *dst, std::size_t n)
{
    Socket::Received &rx = socket_.received_;
    const std::size_t take = std::min(n, rx.end - rx.begin);
    if (take == 0)
        return 0;
    std::memcpy(dst, rx.bytes.get() + rx.begin, take);
    rx.begin += take;
    if (rx.begin == rx.end)
        rx.begin = rx.end = 0;
    sawAnyByte_ = true;
    return take;
}

ssize_t
FrameReader::receive(char *dst, std::size_t n, int flags)
{
    Socket::Received &rx = socket_.received_;
    if (!rx.bytes)
        rx.bytes = std::make_unique<char[]>(readBufferBytes);
    const ssize_t r =
        ::recv(socket_.fd(), rx.bytes.get(), readBufferBytes, flags);
    if (r <= 0)
        return r;
    const std::size_t got = static_cast<std::size_t>(r);
    const std::size_t take = std::min(got, n);
    std::memcpy(dst, rx.bytes.get(), take);
    if (take < got) { // the start of the next frame: keep it
        rx.begin = take;
        rx.end = got;
    }
    return static_cast<ssize_t>(take);
}

LoadError
FrameReader::closedError() const
{
    const bool clean = !sawAnyByte_;
    return netFailure(clean ? LoadError::Kind::OpenFailed
                            : LoadError::Kind::Truncated,
                      clean ? "closed" : "connection closed mid-frame");
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    received_ = {};
}

Expected<Socket>
listenUnix(const std::string &path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path))
        return netFailure(LoadError::Kind::OpenFailed,
                          "unix socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid())
        return netError(LoadError::Kind::OpenFailed, "socket");
    ::unlink(path.c_str());
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return netError(LoadError::Kind::OpenFailed,
                        "bind " + path);
    if (::listen(sock.fd(), 64) != 0)
        return netError(LoadError::Kind::OpenFailed, "listen");
    return sock;
}

Expected<Socket>
listenTcp(std::uint16_t port)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return netError(LoadError::Kind::OpenFailed, "socket");
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return netError(LoadError::Kind::OpenFailed, "bind tcp");
    if (::listen(sock.fd(), 64) != 0)
        return netError(LoadError::Kind::OpenFailed, "listen");
    return sock;
}

Expected<std::uint16_t>
boundPort(const Socket &listener)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.fd(),
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return netError(LoadError::Kind::OpenFailed, "getsockname");
    return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Expected<Socket>
connectTcp(std::uint16_t port)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return netError(LoadError::Kind::OpenFailed, "socket");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return netError(LoadError::Kind::OpenFailed, "connect tcp");
    return sock;
}

int
waitReadable(const Socket &socket, int timeoutMs)
{
    pollfd pfd;
    pfd.fd = socket.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeoutMs);
    if (rc < 0)
        return errno == EINTR ? 0 : -1;
    if (rc == 0)
        return 0;
    // Treat a pure error/hangup with no pending data as an error;
    // POLLIN | POLLHUP means buffered bytes remain readable.
    if ((pfd.revents & POLLIN) != 0)
        return 1;
    return -1;
}

Expected<Socket>
acceptConnection(const Socket &listener)
{
    faultCheck("serve_accept");
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0)
        return netError(LoadError::Kind::OpenFailed, "accept");
    return Socket(fd);
}

std::optional<LoadError>
sendFrame(const Socket &socket, const std::string &frame)
{
    faultCheck("serve_frame_write");
    if (frame.size() > maxFrameBytes)
        return netFailure(LoadError::Kind::Malformed,
                          "frame exceeds size cap");
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t r = ::send(socket.fd(), frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return netError(LoadError::Kind::WriteFailed, "send");
        }
        sent += static_cast<std::size_t>(r);
    }
    return std::nullopt;
}

Expected<std::string>
recvFrame(const Socket &socket, int timeoutMs,
          const CancelToken *cancel, int sliceMs)
{
    faultCheck("serve_frame_read");
    if (sliceMs <= 0)
        sliceMs = 100;
    if (timeoutMs <= 0)
        timeoutMs = sliceMs;

    // Frame prefix: magic, version, payloadSize, crc (4 x u32).
    constexpr std::size_t prefixBytes = 16;
    char prefix[prefixBytes];
    FrameReader reader(socket, timeoutMs, cancel, sliceMs);
    if (auto err = reader.readExactly(prefix, prefixBytes))
        return *err;

    if (loadU32(prefix) != wireMagic)
        return netFailure(LoadError::Kind::BadMagic,
                          "bad frame magic");
    const std::uint32_t payloadSize = loadU32(prefix + 8);
    if (prefixBytes + static_cast<std::size_t>(payloadSize) >
        maxFrameBytes)
        return netFailure(LoadError::Kind::Malformed,
                          "frame exceeds size cap");

    std::string frame(prefixBytes + payloadSize, '\0');
    std::memcpy(frame.data(), prefix, prefixBytes);
    if (auto err = reader.readExactly(frame.data() + prefixBytes,
                                      payloadSize))
        return *err;
    if (!reader.polled())
        recvSpinMetrics().hits.inc();
    return frame;
}

} // namespace serve
} // namespace vaesa
