/**
 * @file
 * Tests of the serve socket layer's frame reads: the socket's read
 * buffer (ServeNetBuffer*), the spin-then-block receive path
 * (ServeNetSpin*) and deadline accounting (ServeNetDeadline*).
 *
 * A frame read asks recv() for up to a few KiB and keeps the bytes
 * past its frame for the next read. The buffer tests put several
 * frames on the wire at once, so a read that dropped or misplaced
 * those bytes would lose or garble the next frame.
 *
 * A read first tries non-blocking recv()s for a short window, then
 * sleeps in poll(). The spin tests watch the serve.recv_spin_*
 * counters to tell which path a read took; the counters are
 * process-wide, so each test compares deltas.
 *
 * The recvFrame idle timeout must be charged against the MONOTONIC
 * CLOCK, not by counting poll slices: the old accounting charged a
 * full slice to every EINTR wakeup (a 1 kHz signal storm burned a
 * 300 ms budget in a few milliseconds of wall time) and restarted
 * the slice after an interrupted recv (which could overstay the
 * deadline indefinitely). These tests interrupt reads for real --
 * pthread_kill() into a handler installed without SA_RESTART -- and
 * assert the total wall-clock bound from both sides.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>

#include "serve/net.hh"
#include "serve/protocol.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace serve {
namespace {

void
onStormSignal(int)
{
    // Exists only to interrupt blocking syscalls with EINTR.
}

/** A connected loopback pair (server side accepted). */
struct SocketPair
{
    Socket client;
    Socket server;
};

SocketPair
loopbackPair()
{
    SocketPair pair;
    Expected<Socket> listener = listenTcp(0);
    EXPECT_TRUE(listener.ok());
    if (!listener.ok())
        return pair;
    Expected<std::uint16_t> port = boundPort(listener.value());
    EXPECT_TRUE(port.ok());
    Expected<Socket> client = connectTcp(port.value());
    EXPECT_TRUE(client.ok());
    Expected<Socket> server = acceptConnection(listener.value());
    EXPECT_TRUE(server.ok());
    if (client.ok())
        pair.client = std::move(client.value());
    if (server.ok())
        pair.server = std::move(server.value());
    return pair;
}

/** Installs a no-SA_RESTART SIGUSR1 handler for the test's scope. */
class SignalStormGuard
{
  public:
    SignalStormGuard()
    {
        struct sigaction action;
        std::memset(&action, 0, sizeof(action));
        action.sa_handler = &onStormSignal;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // deliberately NO SA_RESTART
        EXPECT_EQ(0, sigaction(SIGUSR1, &action, &previous_));
    }

    ~SignalStormGuard() { sigaction(SIGUSR1, &previous_, nullptr); }

  private:
    struct sigaction previous_;
};

/** The receive-spin counters at one point in time. */
struct SpinCounts
{
    std::uint64_t hits = metrics::counter("serve.recv_spin_hits").value();
    std::uint64_t misses =
        metrics::counter("serve.recv_spin_misses").value();
};

/** Counter deltas as (hits, misses). */
using SpinDelta = std::pair<std::uint64_t, std::uint64_t>;

/** The counter deltas since @p before. */
SpinDelta
spinDelta(const SpinCounts &before)
{
    const SpinCounts now;
    return {now.hits - before.hits, now.misses - before.misses};
}

/** True when this process may run on more than one CPU; reads never
 *  spin otherwise. */
bool
multiCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) != 0 ||
           CPU_COUNT(&set) > 1;
}

/** Send @p frame from @p from and wait until @p to can read it, so
 *  the next recvFrame finds it queued. */
void
queueFrame(const Socket &from, const Socket &to, const std::string &frame)
{
    ASSERT_FALSE(sendFrame(from, frame).has_value());
    ASSERT_EQ(1, waitReadable(to, 5000));
}

/** recvFrame on @p pair.server while @p pair.client sends @p frame
 *  @p delayMs later. */
Expected<std::string>
recvDelayed(const SocketPair &pair, const std::string &frame,
            int delayMs)
{
    ThreadPool pool(1);
    auto sent = pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
        EXPECT_FALSE(sendFrame(pair.client, frame).has_value());
    });
    Expected<std::string> got = recvFrame(pair.server, 5000);
    sent.wait();
    pool.shutdown();
    return got;
}

/** A read of a frame that is never sent: fails fast when the frame
 *  was lost instead of blocking for the default budget. */
constexpr int lostFrameTimeoutMs = 2000;

/** recvFrame on @p socket, expected to return @p want. */
void
expectFrame(const Socket &socket, const std::string &want)
{
    Expected<std::string> got = recvFrame(socket, lostFrameTimeoutMs);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    EXPECT_EQ(got.value(), want);
}

TEST(ServeNetBuffer, TwoFramesInOneSendComeBackInOrder)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string first = frameMessage("first");
    const std::string second = frameMessage("second, a longer frame");
    queueFrame(pair.client, pair.server, first + second);

    expectFrame(pair.server, first);
    // The second frame came in with the first: it is taken whole from
    // the buffer, without a wait, which counts as a spin hit.
    const SpinCounts before;
    expectFrame(pair.server, second);
    EXPECT_EQ(spinDelta(before), SpinDelta(1, 0));
}

TEST(ServeNetBuffer, FrameLongerThanTheBufferComesBackWhole)
{
    // A 10 000-byte payload takes several buffer-sized receives; the
    // short frame behind it must survive the last of them.
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    std::string payload(10000, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 7 + i / 256);
    const std::string longFrame = frameMessage(payload);
    const std::string shortFrame = frameMessage("behind the long one");
    queueFrame(pair.client, pair.server, longFrame + shortFrame);

    expectFrame(pair.server, longFrame);
    expectFrame(pair.server, shortFrame);
}

TEST(ServeNetBuffer, FrameSentOneBytePerSendReassembles)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string slow = frameMessage("trickled while the reader waits");
    const std::string second = frameMessage("queued a byte at a time");
    const std::string third = frameMessage("and one more");
    std::atomic<bool> slowRead{false};

    ThreadPool pool(1);
    auto sent = pool.submit([&] {
        auto sendBytes = [&](const std::string &bytes, int pauseUs) {
            for (char byte : bytes) {
                EXPECT_EQ(1, ::send(pair.client.fd(), &byte, 1,
                                    MSG_NOSIGNAL));
                std::this_thread::sleep_for(
                    std::chrono::microseconds(pauseUs));
            }
        };
        // The reader waits for each byte: many short receives.
        sendBytes(slow, 50);
        while (!slowRead.load())
            std::this_thread::yield();
        // Queued before the reader looks: one receive takes both
        // frames, and the third is the second's surplus.
        sendBytes(second + third, 0);
    });
    expectFrame(pair.server, slow);
    slowRead.store(true);
    sent.wait();
    pool.shutdown();
    expectFrame(pair.server, second);
    expectFrame(pair.server, third);
}

TEST(ServeNetBuffer, ExpiredTokenLeavesBufferedBytesForTheNextRead)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string first = frameMessage("read");
    const std::string second = frameMessage("buffered");
    queueFrame(pair.client, pair.server, first + second);
    expectFrame(pair.server, first);

    CancelToken token;
    token.cancel();
    Expected<std::string> cancelled =
        recvFrame(pair.server, lostFrameTimeoutMs, &token);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.error().message, "cancelled");

    expectFrame(pair.server, second);
}

TEST(ServeNetBuffer, PeerCloseAfterABufferedFrameReturnsItThenClosed)
{
    // A whole frame in the buffer, then the close: the frame, then
    // the clean "closed".
    {
        SocketPair pair = loopbackPair();
        ASSERT_TRUE(pair.server.valid());
        const std::string first = frameMessage("one");
        const std::string second = frameMessage("two");
        queueFrame(pair.client, pair.server, first + second);
        pair.client.close();

        expectFrame(pair.server, first);
        expectFrame(pair.server, second);
        Expected<std::string> got =
            recvFrame(pair.server, lostFrameTimeoutMs);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.error().kind, LoadError::Kind::OpenFailed);
        EXPECT_EQ(got.error().message, "closed");
    }
    // A second frame's 16-byte prefix in the buffer, then the close:
    // the buffered prefix is part of the frame, so the payload read
    // that meets the close reports a truncated frame.
    {
        SocketPair pair = loopbackPair();
        ASSERT_TRUE(pair.server.valid());
        const std::string first = frameMessage("whole");
        const std::string second = frameMessage("cut");
        queueFrame(pair.client, pair.server,
                   first + second.substr(0, 16));
        pair.client.close();

        expectFrame(pair.server, first);
        Expected<std::string> got =
            recvFrame(pair.server, lostFrameTimeoutMs);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.error().kind, LoadError::Kind::Truncated);
    }
}

TEST(ServeNetBuffer, MovedSocketKeepsItsBufferedBytes)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string first = frameMessage("before the move");
    const std::string second = frameMessage("after the move");
    const std::string third = frameMessage("after the assignment");
    queueFrame(pair.client, pair.server, first + second + third);
    expectFrame(pair.server, first);

    Socket moved(std::move(pair.server));
    EXPECT_FALSE(pair.server.valid());
    expectFrame(moved, second);

    Socket assigned;
    assigned = std::move(moved);
    EXPECT_FALSE(moved.valid());
    expectFrame(assigned, third);
}

TEST(ServeNetSpin, QueuedFrameIsASpinHitWithoutPoll)
{
    if (!multiCpu())
        GTEST_SKIP() << "reads do not spin on a one-CPU host";
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string frame = frameMessage("queued");
    queueFrame(pair.client, pair.server, frame);

    const SpinCounts before;
    Expected<std::string> got = recvFrame(pair.server, 5000);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    EXPECT_EQ(got.value(), frame);
    EXPECT_EQ(spinDelta(before), SpinDelta(1, 0));
}

TEST(ServeNetSpin, LateFrameArrivesThroughThePollFallback)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string frame = frameMessage("late");

    const SpinCounts before;
    Expected<std::string> got = recvDelayed(pair, frame, 20);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    EXPECT_EQ(got.value(), frame);
    // 20 ms is far past the spin window: the read sleeps in poll().
    EXPECT_EQ(spinDelta(before), SpinDelta(0, 1));
}

TEST(ServeNetSpin, ExpiredCancelTokenConsumesNoByte)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());
    const std::string frame = frameMessage("kept");
    queueFrame(pair.client, pair.server, frame);

    CancelToken token;
    token.cancel();
    Expected<std::string> cancelled =
        recvFrame(pair.server, 5000, &token);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.error().kind, LoadError::Kind::OpenFailed);
    EXPECT_EQ(cancelled.error().message, "cancelled");

    Expected<std::string> got = recvFrame(pair.server, 5000);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    EXPECT_EQ(got.value(), frame);
}

TEST(ServeNetSpin, PeerCloseInsideTheWindowKeepsTheCloseErrors)
{
    // Zero bytes, then a close: the clean "closed" of an idle peer.
    {
        SocketPair pair = loopbackPair();
        ASSERT_TRUE(pair.server.valid());
        pair.client.close();
        const SpinCounts before;
        Expected<std::string> got = recvFrame(pair.server, 5000);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.error().kind, LoadError::Kind::OpenFailed);
        EXPECT_EQ(got.error().message, "closed");
        if (multiCpu()) {
            EXPECT_EQ(spinDelta(before).second, 0u)
                << "the close was queued; the read should not poll";
        }
    }
    // Ten prefix bytes, then a close: a truncated frame.
    {
        SocketPair pair = loopbackPair();
        ASSERT_TRUE(pair.server.valid());
        const std::string frame = frameMessage("cut");
        ASSERT_EQ(10, ::send(pair.client.fd(), frame.data(), 10,
                             MSG_NOSIGNAL));
        pair.client.close();
        ASSERT_EQ(1, waitReadable(pair.server, 5000));
        const SpinCounts before;
        Expected<std::string> got = recvFrame(pair.server, 5000);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.error().kind, LoadError::Kind::Truncated);
        EXPECT_EQ(got.error().message, "connection closed mid-frame");
        if (multiCpu()) {
            EXPECT_EQ(spinDelta(before).second, 0u);
        }
    }
}

TEST(ServeNetDeadline, SignalStormNeitherShortensNorExtendsTimeout)
{
    const SignalStormGuard guard;
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());

    constexpr int timeoutMs = 300;
    std::atomic<pthread_t> reader{};
    std::atomic<bool> readerStarted{false};
    std::atomic<bool> readerDone{false};
    std::uint64_t elapsedNs = 0;
    std::string failure;

    ThreadPool pool(1);
    auto done = pool.submit([&] {
        reader.store(pthread_self());
        readerStarted.store(true);
        const std::uint64_t t0 = metrics::monotonicNowNs();
        // Nothing is ever sent: this must time out after ~300 ms of
        // wall clock no matter how often the poll is interrupted.
        Expected<std::string> frame =
            recvFrame(pair.server, timeoutMs, nullptr, 50);
        elapsedNs = metrics::monotonicNowNs() - t0;
        EXPECT_FALSE(frame.ok());
        if (!frame.ok())
            failure = frame.error().describe();
        readerDone.store(true);
    });

    while (!readerStarted.load())
        std::this_thread::yield();
    // ~1 kHz signal storm: each signal interrupts the blocking poll
    // (EINTR), which the old slice accounting charged a full 50 ms.
    while (!readerDone.load()) {
        pthread_kill(reader.load(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.wait();
    pool.shutdown();

    EXPECT_NE(failure.find("timeout"), std::string::npos)
        << failure;
    // Lower bound: the storm must not burn the budget early (the
    // old code failed here at ~6-50 ms). Upper bound: interrupted
    // recv must not restart the slice forever.
    EXPECT_GE(elapsedNs, 295ull * 1000000ull)
        << "timed out after only " << elapsedNs / 1000000 << " ms";
    EXPECT_LE(elapsedNs, 3000ull * 1000000ull)
        << "overstayed: " << elapsedNs / 1000000 << " ms";
}

TEST(ServeNetDeadline, PartialProgressResetsTheIdleBudget)
{
    SocketPair pair = loopbackPair();
    ASSERT_TRUE(pair.server.valid());

    constexpr int timeoutMs = 250;
    std::atomic<bool> readerStarted{false};
    std::uint64_t elapsedNs = 0;
    std::string failure;

    ThreadPool pool(1);
    auto done = pool.submit([&] {
        readerStarted.store(true);
        const std::uint64_t t0 = metrics::monotonicNowNs();
        Expected<std::string> frame =
            recvFrame(pair.server, timeoutMs, nullptr, 50);
        elapsedNs = metrics::monotonicNowNs() - t0;
        EXPECT_FALSE(frame.ok());
        if (!frame.ok())
            failure = frame.error().describe();
    });

    while (!readerStarted.load())
        std::this_thread::yield();
    // Feed 10 of the 16 prefix bytes 150 ms in: the idle budget is
    // measured from the LAST byte of progress, so the read times out
    // at ~150 + 250 ms, not at 250 ms total.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const std::string frame = frameMessage("partial");
    ASSERT_EQ(10, ::send(pair.client.fd(), frame.data(), 10,
                         MSG_NOSIGNAL));
    done.wait();
    pool.shutdown();

    EXPECT_NE(failure.find("timeout"), std::string::npos)
        << failure;
    EXPECT_GE(elapsedNs, 350ull * 1000000ull)
        << "budget not reset by progress: "
        << elapsedNs / 1000000 << " ms";
    EXPECT_LE(elapsedNs, 3000ull * 1000000ull);
}

} // namespace
} // namespace serve
} // namespace vaesa
