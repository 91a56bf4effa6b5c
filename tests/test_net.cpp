/**
 * @file
 * Tests for the networking tier: net/ socket + frame primitives, the
 * ps/wire.h message serialization (with byte-level goldens pinning the
 * wire format), the CsQ (QSGD) codec, and the SocketTransport fabric up
 * to a full multi-endpoint cluster over loopback TCP.
 *
 * The golden vectors here are the cross-process contract: a payload a
 * worker encodes in one process must decode bit-identically in a shard
 * process built from the same source. Change the wire format and these
 * tests fail by design — bump them consciously.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/net.h"
#include "obs/registry.h"
#include "obs/tracectx.h"
#include "ps/ps.h"
#include "rng/xorshift.h"
#include "test_common.h"
#include "util/thread_pool.h"

namespace buckwild {
namespace {

// ======================================================== NetSocket

TEST(NetSocket, ParsesAddresses)
{
    const net::Address a = net::parse_address("127.0.0.1:7001");
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 7001);
    EXPECT_EQ(a.to_string(), "127.0.0.1:7001");
    const net::Address b = net::parse_address(":9090"); // empty host
    EXPECT_EQ(b.host, "127.0.0.1");
    EXPECT_EQ(b.port, 9090);
    EXPECT_THROW(net::parse_address("no-port"), std::runtime_error);
    EXPECT_THROW(net::parse_address("h:notaport"), std::runtime_error);
    EXPECT_THROW(net::parse_address("h:65536"), std::runtime_error);
}

TEST(NetSocket, ListenConnectRoundTrip)
{
    std::uint16_t port = 0;
    std::string error;
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 8, &port, &error);
    ASSERT_TRUE(listener.valid()) << error;
    ASSERT_GT(port, 0);
    EXPECT_EQ(net::local_port(listener.get()), port);

    net::Fd client = net::connect_tcp({"127.0.0.1", port},
                                      std::chrono::milliseconds(2000),
                                      &error);
    ASSERT_TRUE(client.valid()) << error;
    net::Fd server = net::accept_client(listener.get(), 2000);
    ASSERT_TRUE(server.valid());

    const char ping[] = "ping!";
    ASSERT_TRUE(net::write_full(client.get(), ping, sizeof(ping)));
    char buf[sizeof(ping)] = {};
    ASSERT_TRUE(net::read_full(server.get(), buf, sizeof(ping)));
    EXPECT_STREQ(buf, ping);
}

TEST(NetSocket, ConnectTimesOutAgainstNobody)
{
    // A port with no listener: bind one to reserve it, close it, then
    // dial it with a short deadline.
    std::uint16_t port = 0;
    {
        net::Fd reserved = net::listen_tcp("127.0.0.1", 0, 1, &port, nullptr);
        ASSERT_TRUE(reserved.valid());
    }
    std::string error;
    net::Fd fd = net::connect_tcp({"127.0.0.1", port},
                                  std::chrono::milliseconds(50), &error);
    EXPECT_FALSE(fd.valid());
    EXPECT_FALSE(error.empty());
}

TEST(NetSocket, AcceptTimesOutWithoutClient)
{
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 8, nullptr, nullptr);
    ASSERT_TRUE(listener.valid());
    net::Fd none = net::accept_client(listener.get(), /*timeout_ms=*/20);
    EXPECT_FALSE(none.valid());
}

// ========================================================= NetFrame

/// A connected local socket pair for framing tests.
struct SocketPair
{
    net::Fd a, b;
    SocketPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Fd(fds[0]);
        b = net::Fd(fds[1]);
    }
};

TEST(NetFrame, RoundTripsPayloads)
{
    SocketPair pair;
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{7}, std::size_t{4096}}) {
        std::vector<std::uint8_t> payload(size);
        for (std::size_t i = 0; i < size; ++i)
            payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
        ASSERT_TRUE(
            net::write_frame(pair.a.get(), payload.data(), payload.size()));
        std::vector<std::uint8_t> out;
        ASSERT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kOk);
        EXPECT_EQ(out, payload);
    }
}

TEST(NetFrame, SurvivesPartialDelivery)
{
    // The sender trickles the frame byte by byte — header split, payload
    // split — and the reader's exact-count loops must reassemble it.
    SocketPair pair;
    std::vector<std::uint8_t> payload(97);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> frame;
    {
        // Build the exact wire image via a scratch socketpair.
        SocketPair scratch;
        ASSERT_TRUE(net::write_frame(scratch.a.get(), payload.data(),
                                     payload.size()));
        frame.resize(net::kFrameHeaderBytes + payload.size());
        ASSERT_TRUE(net::read_full(scratch.b.get(), frame.data(),
                                  frame.size()));
    }

    std::thread writer([&] {
        for (const std::uint8_t byte : frame) {
            ASSERT_TRUE(net::write_full(pair.a.get(), &byte, 1));
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    std::vector<std::uint8_t> out;
    EXPECT_EQ(net::read_frame(pair.b.get(), out, net::kDefaultMaxFrameBytes),
              net::FrameResult::kOk);
    EXPECT_EQ(out, payload);
    writer.join();
}

TEST(NetFrame, RejectsBadMagicAndOversizedBeforeAllocating)
{
    SocketPair pair;
    // Bad magic.
    const std::uint8_t junk[8] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0, 0};
    ASSERT_TRUE(net::write_full(pair.a.get(), junk, sizeof(junk)));
    std::vector<std::uint8_t> out;
    EXPECT_EQ(net::read_frame(pair.b.get(), out, net::kDefaultMaxFrameBytes),
              net::FrameResult::kBadMagic);

    // Good magic, absurd length: rejected by the cap, not allocated.
    SocketPair fresh;
    std::uint8_t header[8];
    const std::uint32_t magic = net::kFrameMagic;
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &huge, 4);
    ASSERT_TRUE(net::write_full(fresh.a.get(), header, sizeof(header)));
    EXPECT_EQ(net::read_frame(fresh.b.get(), out, /*max_frame_bytes=*/1024),
              net::FrameResult::kTooLarge);
}

TEST(NetFrame, DistinguishesCleanCloseFromMidFrameEof)
{
    // Peer closes between frames: clean kClosed.
    {
        SocketPair pair;
        pair.a.reset();
        std::vector<std::uint8_t> out;
        EXPECT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kClosed);
    }
    // Peer dies mid-header: kError (a desynced stream, not a shutdown).
    {
        SocketPair pair;
        const std::uint8_t partial[3] = {0x50, 0x46, 0x57};
        ASSERT_TRUE(net::write_full(pair.a.get(), partial, sizeof(partial)));
        pair.a.reset();
        std::vector<std::uint8_t> out;
        EXPECT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kError);
    }
}

// ========================================================== NetWire

using Message = ps::Message;

Message
sample_push()
{
    ps::Message m;
    m.kind = ps::Message::Kind::kPush;
    m.sender = 3;
    m.token = 0xABCDEF0123456789ull;
    m.worker = 1;
    m.clock = 42;
    m.version = 7;
    std::vector<float> g = {0.5f, -1.25f, 3.0f, -0.125f, 2.0f};
    std::vector<float> residual(g.size(), 0.0f);
    rng::Xorshift128Plus rng(11);
    m.gradient = ps::encode_gradient(g.data(), g.size(),
                                     ps::Codec::qsgd(4), residual.data(),
                                     &rng);
    return m;
}

TEST(NetWire, MessageRoundTripsEveryField)
{
    Message m = sample_push();
    m.stats = {1.5, -2.5, 1e9};
    m.weights = {0.25f, -0.75f};
    m.accepted = false;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    EXPECT_EQ(bytes.size(), ps::serialized_bytes(m));

    Message out;
    ASSERT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.kind, m.kind);
    EXPECT_EQ(out.sender, m.sender);
    EXPECT_EQ(out.token, m.token);
    EXPECT_EQ(out.worker, m.worker);
    EXPECT_EQ(out.clock, m.clock);
    EXPECT_EQ(out.version, m.version);
    EXPECT_EQ(out.accepted, m.accepted);
    EXPECT_EQ(out.gradient.kind, m.gradient.kind);
    EXPECT_EQ(out.gradient.bits, m.gradient.bits);
    EXPECT_EQ(out.gradient.count, m.gradient.count);
    EXPECT_EQ(out.gradient.scale, m.gradient.scale);
    EXPECT_EQ(out.gradient.norms, m.gradient.norms);
    EXPECT_EQ(out.gradient.payload, m.gradient.payload);
    EXPECT_EQ(out.weights, m.weights);
    EXPECT_EQ(out.stats, m.stats);

    // Cross-"process" bit identity: the receiver's decode equals the
    // sender's (same payload bytes, same arithmetic).
    EXPECT_EQ(ps::decode_gradient(out.gradient),
              ps::decode_gradient(m.gradient));
}

TEST(NetWire, GoldenAckBytes)
{
    // The fixed-header golden: pins offsets, widths, and endianness.
    Message m;
    m.kind = Message::Kind::kAck;
    m.accepted = true;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x0102030405060708ull;
    m.clock = 9;
    m.version = 10;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::vector<std::uint8_t> golden = {
        1, 1, 0, 32,                      // kind=kAck, accepted, Cs32 codec
        2, 0, 0, 0,                       // sender
        3, 0, 0, 0,                       // worker
        8, 7, 6, 5, 4, 3, 2, 1,           // token (LE)
        9, 0, 0, 0, 0, 0, 0, 0,           // clock
        10, 0, 0, 0, 0, 0, 0, 0,          // version
        0, 0, 0, 0,                       // gradient count
        0, 0, 0, 0,                       // gradient scale
        0, 0, 0, 0,                       // norm count
        0, 0, 0, 0,                       // payload size
        0, 0, 0, 0,                       // weight count
        0, 0, 0, 0,                       // stats count
    };
    EXPECT_EQ(bytes, golden);
}

TEST(NetWire, RejectsTruncationAndTrailingGarbage)
{
    Message m = sample_push();
    m.weights = {1.0f};
    m.stats = {2.0};
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    Message out;
    // Every possible truncation point must be rejected, never crash.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(ps::deserialize_message(bytes.data(), n, out))
            << "accepted a " << n << "-byte prefix";
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
    // Unknown kind byte.
    std::vector<std::uint8_t> bad_kind = bytes;
    bad_kind[0] = 250;
    EXPECT_FALSE(
        ps::deserialize_message(bad_kind.data(), bad_kind.size(), out));
}

TEST(NetWire, TraceBlockRoundTripsOnMessages)
{
    Message m = sample_push();
    const std::vector<std::uint8_t> plain = ps::serialize_message(m);

    m.trace.ctx.trace_lo = 0x1111222233334444ull;
    m.trace.ctx.trace_hi = 0x5555666677778888ull;
    m.trace.ctx.span = 0xAAAA;
    m.trace.ctx.parent = 0xBBBB;
    m.trace.send_ts_ns = 123456789;
    m.trace.echo_send_ts_ns = 111;
    m.trace.echo_recv_ts_ns = 222;
    const std::vector<std::uint8_t> traced = ps::serialize_message(m);

    // The trace block is strictly additive: same prefix, 58 more bytes.
    ASSERT_EQ(traced.size(), plain.size() + obs::kTraceBlockBytes);
    EXPECT_EQ(ps::serialized_bytes(m), traced.size());
    EXPECT_EQ(std::memcmp(traced.data(), plain.data(), plain.size()), 0);

    Message out;
    ASSERT_TRUE(
        ps::deserialize_message(traced.data(), traced.size(), out));
    EXPECT_EQ(out.trace.ctx.trace_lo, m.trace.ctx.trace_lo);
    EXPECT_EQ(out.trace.ctx.trace_hi, m.trace.ctx.trace_hi);
    EXPECT_EQ(out.trace.ctx.span, m.trace.ctx.span);
    EXPECT_EQ(out.trace.ctx.parent, m.trace.ctx.parent);
    EXPECT_EQ(out.trace.send_ts_ns, m.trace.send_ts_ns);
    EXPECT_EQ(out.trace.echo_send_ts_ns, m.trace.echo_send_ts_ns);
    EXPECT_EQ(out.trace.echo_recv_ts_ns, m.trace.echo_recv_ts_ns);
    EXPECT_EQ(out.clock, m.clock) << "regular fields still round-trip";

    // Backward compatibility: an old-format (traceless) frame parses in
    // new code as a message with no context.
    Message old_format;
    ASSERT_TRUE(
        ps::deserialize_message(plain.data(), plain.size(), old_format));
    EXPECT_FALSE(old_format.trace.ctx.valid());
}

TEST(NetWire, TraceBlockTruncationSweep)
{
    Message m = sample_push();
    m.weights = {1.0f};
    m.stats = {2.0};
    m.trace.ctx = obs::make_root_context();
    m.trace.send_ts_ns = 42;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::size_t base = bytes.size() - obs::kTraceBlockBytes;

    // Exactly two prefixes parse: the traceless base layout (an old
    // sender) and the full traced frame. Every cut INSIDE the trace
    // block is trailing garbage and must reject the whole message.
    Message out;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const bool ok = ps::deserialize_message(bytes.data(), n, out);
        if (n == base) {
            EXPECT_TRUE(ok) << "base-layout prefix must stay parseable";
            EXPECT_FALSE(out.trace.ctx.valid());
        } else if (n == bytes.size()) {
            EXPECT_TRUE(ok);
            EXPECT_TRUE(out.trace.ctx.valid());
        } else {
            EXPECT_FALSE(ok) << "accepted a " << n << "-byte prefix";
        }
    }

    // A block-sized tail that is not a well-formed trace block is
    // garbage, not a context: corrupt tag, corrupt version, zeroed ids.
    std::vector<std::uint8_t> bad = bytes;
    bad[base] = 0xCF; // tag
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out));
    bad = bytes;
    bad[base + 1] = obs::kTraceBlockVersion + 1;
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out));
    bad = bytes;
    std::fill(bad.begin() + static_cast<long>(base) + 2,
              bad.begin() + static_cast<long>(base) + 18, 0);
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out))
        << "a zero trace id cannot have been emitted";
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
}

/// A sparse Cs8 push with a known encoding (see SparseCs8MessageBytes
/// for the byte-level walk-through).
Message
sample_sparse_push()
{
    Message m;
    m.kind = ps::Message::Kind::kPush;
    m.accepted = false;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x0102030405060708ull;
    m.clock = 9;
    m.version = 10;
    const float value[2] = {127.0f, -127.0f};
    const std::uint32_t index[2] = {3, 10};
    const ps::GradientView view = ps::GradientView::sparse_view(
        value, index, 2, /*dim=*/32, simd::sparse::IndexMode::kAbsolute);
    m.gradient = ps::encode_sparse_gradient(view, ps::Codec::from_bits(8),
                                            nullptr);
    return m;
}

TEST(NetWire, SparsePushRoundTripsThroughSerialization)
{
    const Message m = sample_sparse_push();
    ASSERT_TRUE(m.gradient.sparse());
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    EXPECT_EQ(bytes.size(), ps::serialized_bytes(m));

    Message out;
    ASSERT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.gradient.dim, m.gradient.dim);
    EXPECT_EQ(out.gradient.count, m.gradient.count);
    EXPECT_EQ(out.gradient.index_payload, m.gradient.index_payload);
    EXPECT_EQ(out.gradient.payload, m.gradient.payload);

    // Cross-process bit identity of the sparse decode.
    const ps::SparseGradient a = ps::decode_sparse_gradient(m.gradient);
    const ps::SparseGradient b = ps::decode_sparse_gradient(out.gradient);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.index, (std::vector<std::uint32_t>{3, 10}));
    EXPECT_EQ(a.value, (std::vector<float>{127.0f, -127.0f}));
}

TEST(NetWire, SparsePushTruncationSweep)
{
    // Without a trace block only the full frame parses: a cut at the
    // pre-sparse base layout still has flags bit1 set, so the missing
    // sparse block fails the parse instead of silently reading dense.
    Message m = sample_sparse_push();
    const std::vector<std::uint8_t> plain = ps::serialize_message(m);
    Message out;
    for (std::size_t n = 0; n < plain.size(); ++n)
        EXPECT_FALSE(ps::deserialize_message(plain.data(), n, out))
            << "accepted a " << n << "-byte prefix";
    ASSERT_TRUE(
        ps::deserialize_message(plain.data(), plain.size(), out));
    EXPECT_TRUE(out.gradient.sparse());

    // With a trace block: exactly two parse points, the traceless sparse
    // frame and the full frame — same contract as the dense sweep.
    m.trace.ctx = obs::make_root_context();
    m.trace.send_ts_ns = 42;
    const std::vector<std::uint8_t> traced = ps::serialize_message(m);
    const std::size_t base = traced.size() - obs::kTraceBlockBytes;
    for (std::size_t n = 0; n <= traced.size(); ++n) {
        const bool ok = ps::deserialize_message(traced.data(), n, out);
        if (n == base) {
            EXPECT_TRUE(ok) << "traceless sparse frame must stay parseable";
            EXPECT_TRUE(out.gradient.sparse());
            EXPECT_FALSE(out.trace.ctx.valid());
        } else if (n == traced.size()) {
            EXPECT_TRUE(ok);
            EXPECT_TRUE(out.gradient.sparse());
            EXPECT_TRUE(out.trace.ctx.valid());
        } else {
            EXPECT_FALSE(ok) << "accepted a " << n << "-byte prefix";
        }
    }

    // Trailing garbage after the sparse block, a zero dimension, and an
    // unknown flag bit are each a parse failure, not a guess.
    std::vector<std::uint8_t> padded = plain;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
    std::vector<std::uint8_t> zero_dim = plain;
    const std::size_t dim_at =
        plain.size() - 8 - m.gradient.index_payload.size();
    std::fill(zero_dim.begin() + static_cast<long>(dim_at),
              zero_dim.begin() + static_cast<long>(dim_at) + 4, 0);
    EXPECT_FALSE(
        ps::deserialize_message(zero_dim.data(), zero_dim.size(), out));
    std::vector<std::uint8_t> bad_flags = plain;
    bad_flags[1] |= 4;
    EXPECT_FALSE(
        ps::deserialize_message(bad_flags.data(), bad_flags.size(), out));
}

TEST(NetWire, SparsePushFuzzRoundTrip)
{
    // Random supports and values through every codec tier: the frame
    // must round-trip field-exact and decode bit-identically on the
    // "receiver" side.
    rng::Xorshift128Plus fuzz(0xF00D);
    const ps::Codec codecs[] = {ps::Codec::from_bits(32),
                                ps::Codec::from_bits(8),
                                ps::Codec::from_bits(1), ps::Codec::qsgd(4)};
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t dim = 8 + fuzz() % 3000;
        const std::size_t nnz = fuzz() % std::min<std::uint32_t>(dim, 300);
        std::vector<std::uint32_t> index;
        std::uint32_t cursor = 0;
        for (std::size_t j = 0; j < nnz && cursor < dim; ++j) {
            index.push_back(cursor);
            cursor += 1 + fuzz() % ((dim / 16) + 1);
        }
        std::vector<float> value(index.size());
        for (auto& v : value)
            v = rng::to_unit_float(static_cast<std::uint32_t>(fuzz())) *
                    8.0f -
                4.0f;
        std::vector<float> residual(index.size(), 0.0f);

        const ps::Codec& codec = codecs[trial % 4];
        const ps::GradientView view = ps::GradientView::sparse_view(
            value.data(), index.data(), index.size(), dim,
            simd::sparse::IndexMode::kAbsolute);
        Message m;
        m.kind = ps::Message::Kind::kPush;
        m.sender = static_cast<std::uint32_t>(fuzz());
        m.worker = static_cast<std::uint32_t>(fuzz() % 64);
        m.token = fuzz();
        m.clock = fuzz() % 1000;
        m.gradient =
            ps::encode_sparse_gradient(view, codec, residual.data(), &fuzz);

        const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
        ASSERT_EQ(bytes.size(), ps::serialized_bytes(m));
        Message out;
        ASSERT_TRUE(
            ps::deserialize_message(bytes.data(), bytes.size(), out))
            << "trial " << trial;
        EXPECT_EQ(out.gradient.dim, dim);
        EXPECT_EQ(out.gradient.count, index.size());

        const ps::SparseGradient sent =
            ps::decode_sparse_gradient(m.gradient);
        const ps::SparseGradient received =
            ps::decode_sparse_gradient(out.gradient);
        ASSERT_EQ(received.index, index) << "trial " << trial;
        ASSERT_EQ(received.index, sent.index);
        ASSERT_EQ(received.value, sent.value);
        // And the error-feedback invariant held through the pack:
        // r == g - q entry-by-entry, bit-exact against the decoded q.
        for (std::size_t j = 0; j < index.size(); ++j)
            ASSERT_EQ(residual[j], value[j] - received.value[j])
                << "trial " << trial << " j=" << j;
    }
}

// ======================================================== NetGolden

TEST(NetGolden, Cs8PayloadBytes)
{
    const float g[4] = {127.0f, -127.0f, 0.0f, 64.0f};
    float residual[4] = {};
    const ps::WireGradient wire = ps::encode_gradient(g, 4, 8, residual);
    EXPECT_EQ(wire.kind, ps::CodecKind::kLinear);
    EXPECT_EQ(wire.scale, 1.0f); // maxabs 127 over 127 levels
    const std::vector<std::uint8_t> golden = {0x7F, 0x81, 0x00, 0x40};
    EXPECT_EQ(wire.payload, golden);
}

TEST(NetGolden, Cs1PayloadBytes)
{
    const float g[4] = {1.0f, -2.0f, 3.0f, -4.0f};
    float residual[4] = {};
    const ps::WireGradient wire = ps::encode_gradient(g, 4, 1, residual);
    EXPECT_EQ(wire.kind, ps::CodecKind::kSign);
    EXPECT_EQ(wire.scale, 2.5f); // mean |g|
    // Bit set = negative, bit k % 8: coordinates 1 and 3.
    const std::vector<std::uint8_t> golden = {0x0A};
    EXPECT_EQ(wire.payload, golden);
}

TEST(NetGolden, CsQ4PayloadBytes)
{
    // One bucket, norm 5; ratios {1, 0, 0, 0} land on levels {7, 0, 0, 0}
    // for every dither u in [0, 1) — the golden is rng-independent.
    const float g[4] = {5.0f, 0.0f, 0.0f, 0.0f};
    float residual[4] = {};
    rng::Xorshift128Plus rng(123);
    const ps::WireGradient wire =
        ps::encode_gradient(g, 4, ps::Codec::qsgd(4), residual, &rng);
    EXPECT_EQ(wire.kind, ps::CodecKind::kQsgd);
    ASSERT_EQ(wire.norms.size(), 1u);
    EXPECT_EQ(wire.norms[0], 5.0f);
    // Byte 0: sign bitmap (all positive). Then Elias gamma of levels+1 =
    // {8, 1, 1, 1} MSB-first: 0001000 1 1 1 -> 0x11 0xC0.
    const std::vector<std::uint8_t> golden = {0x00, 0x11, 0xC0};
    EXPECT_EQ(wire.payload, golden);
    // And the decode returns exactly the grid points.
    const std::vector<float> decoded = ps::decode_gradient(wire);
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[0], 5.0f);
    EXPECT_EQ(decoded[1], 0.0f);
    EXPECT_EQ(residual[0], 0.0f);
}

TEST(NetGolden, SparseCs8MessageBytes)
{
    // The sparse-push extension golden: a full serialized frame, byte by
    // byte. Values {127, -127} at coordinates {3, 10} of a 32-dim slice,
    // Cs8: maxabs 127 over 127 levels -> scale 1.0, levels 0x7F / 0x81.
    // Index stream, Elias gamma MSB-first: gamma(first+1) = gamma(4) =
    // 00100, then the gap gamma(10-3) = gamma(7) = 00111 -> bytes
    // 0x21 0xC0. This is the cross-process contract for sparse pushes —
    // change it consciously.
    const Message m = sample_sparse_push();
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::vector<std::uint8_t> golden = {
        0, 2, 1, 8,              // kind=kPush, flags=sparse, Cs8 codec
        2, 0, 0, 0,              // sender
        3, 0, 0, 0,              // worker
        8, 7, 6, 5, 4, 3, 2, 1,  // token (LE)
        9, 0, 0, 0, 0, 0, 0, 0,  // clock
        10, 0, 0, 0, 0, 0, 0, 0, // version
        2, 0, 0, 0,              // gradient count = nnz
        0x00, 0x00, 0x80, 0x3F,  // scale 1.0f
        0, 0, 0, 0,              // norm count
        2, 0, 0, 0,              // payload size
        0x7F, 0x81,              // int8 levels 127, -127
        0, 0, 0, 0,              // weight count
        0, 0, 0, 0,              // stats count
        32, 0, 0, 0,             // sparse dimension
        2, 0, 0, 0,              // index payload size
        0x21, 0xC0,              // gamma(4) gamma(7)
    };
    EXPECT_EQ(bytes, golden);
}

// ========================================================== NetQsgd

TEST(NetQsgd, ResidualIsExactlyGradientMinusDecode)
{
    rng::Xorshift128Plus fuzz(31337);
    for (const int bits : {2, 4, 8}) {
        for (int trial = 0; trial < 20; ++trial) {
            const std::size_t n = 1 + fuzz() % 700; // spans >1 bucket
            std::vector<float> g(n), residual(n, 0.0f);
            for (auto& x : g)
                x = (rng::to_unit_float(
                         static_cast<std::uint32_t>(fuzz() >> 32)) -
                     0.5f) *
                    8.0f;
            rng::Xorshift128Plus dither(trial);
            const ps::WireGradient wire = ps::encode_gradient(
                g.data(), n, ps::Codec::qsgd(bits), residual.data(),
                &dither);
            const std::vector<float> q = ps::decode_gradient(wire);
            ASSERT_EQ(q.size(), n);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(residual[k], g[k] - q[k])
                    << "bits " << bits << " k " << k;
        }
    }
}

TEST(NetQsgd, StochasticRoundingIsUnbiased)
{
    // E[decode] == g: average many independent encodes of one vector.
    const std::size_t n = 64;
    std::vector<float> g(n);
    rng::Xorshift128Plus init(5);
    for (auto& x : g)
        x = rng::to_unit_float(static_cast<std::uint32_t>(init() >> 32)) -
            0.5f;
    std::vector<double> mean(n, 0.0);
    const int trials = 3000;
    rng::Xorshift128Plus dither(777);
    for (int t = 0; t < trials; ++t) {
        const ps::WireGradient wire = ps::encode_gradient(
            g.data(), n, ps::Codec::qsgd(4), nullptr, &dither);
        const std::vector<float> q = ps::decode_gradient(wire);
        for (std::size_t k = 0; k < n; ++k) mean[k] += q[k];
    }
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_NEAR(mean[k] / trials, g[k], 0.05) << "k " << k;
}

TEST(NetQsgd, CsQ4HalvesCs8Traffic)
{
    // The acceptance ratio: on a realistic (dense, zero-mean) gradient
    // the gamma-coded CsQ4 payload is >= 2x smaller than Cs8's.
    const std::size_t n = 4096;
    std::vector<float> g(n);
    rng::Xorshift128Plus rng(99);
    for (auto& x : g)
        x = (rng::to_unit_float(static_cast<std::uint32_t>(rng() >> 32)) -
             0.5f) *
            2.0f;
    std::vector<float> r8(n, 0.0f), rq(n, 0.0f);
    const ps::WireGradient cs8 = ps::encode_gradient(g.data(), n, 8,
                                                     r8.data());
    rng::Xorshift128Plus dither(7);
    const ps::WireGradient csq = ps::encode_gradient(
        g.data(), n, ps::Codec::qsgd(4), rq.data(), &dither);
    EXPECT_LE(csq.wire_bytes() * 2, cs8.wire_bytes())
        << "CsQ4 " << csq.wire_bytes() << "B vs Cs8 " << cs8.wire_bytes()
        << "B";
}

// ==================================================== NetQsgdGolden

/// FNV-1a over raw bytes: the digest the bit-identity golden pins.
struct Fnv64
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001B3ull;
        }
    }

    template <typename T>
    void
    pod(T value)
    {
        bytes(&value, sizeof(value));
    }
};

/// One CsQ golden input: a length and a shape that stresses one corner
/// of the encoder (partial tail bucket, all-zero bucket, NaN, spikes).
struct QsgdGoldenCase
{
    const char* name;
    std::size_t n;
};

constexpr QsgdGoldenCase kQsgdGoldenCases[] = {
    {"n1", 1},          {"n7", 7},       {"n255", 255},
    {"n256", 256},      {"n700", 700},   {"n1024", 1024},
    {"n4096", 4096},    {"tail", 1000},  {"zero_bucket", 768},
    {"nan", 300},
};

std::vector<float>
qsgd_golden_input(const QsgdGoldenCase& c, std::size_t index)
{
    rng::Xorshift128Plus gen(0x60D0 + index);
    std::vector<float> g(c.n);
    for (std::size_t k = 0; k < c.n; ++k) {
        const float u =
            rng::to_unit_float(static_cast<std::uint32_t>(gen() >> 32));
        // Every 37th coordinate spikes, so high levels occur at every s.
        g[k] = (u - 0.5f) * (k % 37 == 0 ? 400.0f : 8.0f);
    }
    const std::string name = c.name;
    if (name == "tail")
        for (std::size_t k = 768; k < c.n; ++k) g[k] *= 1e-3f;
    if (name == "zero_bucket")
        for (std::size_t k = 256; k < 512; ++k)
            g[k] = k % 2 == 0 ? 0.0f : -0.0f;
    if (name == "nan") g[17] = std::numeric_limits<float>::quiet_NaN();
    return g;
}

/// Digest of everything one CsQ encode produces: payload bytes, norm
/// and residual bit patterns, and the next word of the dither stream
/// (which pins how many words the encoder consumed).
std::uint64_t
qsgd_golden_digest(int bits, std::size_t index)
{
    const QsgdGoldenCase& c = kQsgdGoldenCases[index];
    const std::vector<float> g = qsgd_golden_input(c, index);
    std::vector<float> residual(c.n, 0.0f);
    rng::Xorshift128Plus dither(1000 + index);
    const ps::WireGradient wire = ps::encode_gradient(
        g.data(), c.n, ps::Codec::qsgd(bits), residual.data(), &dither);
    Fnv64 digest;
    digest.bytes(wire.payload.data(), wire.payload.size());
    for (float norm : wire.norms)
        digest.pod(std::bit_cast<std::uint32_t>(norm));
    for (float r : residual) digest.pod(std::bit_cast<std::uint32_t>(r));
    digest.pod(dither());
    return digest.h;
}

TEST(NetGolden, CsQEncodeIsBitIdentical)
{
    // Recorded from the bit-serial encoder the two-pass encoder
    // replaced: payload bytes, norms, residuals and dither consumption
    // must match it exactly. Change the codec and this fails by design.
    const std::uint64_t golden[3][std::size(kQsgdGoldenCases)] = {
        // CsQ2
        {
            0xe545c9f5e174324dull, 0x82fedc939b2fe71dull, 0xccc6450f8cb2b695ull,
            0xf48db0be406aeaedull, 0x24bff7cdd624195dull, 0xbbff4b465f304a0dull,
            0x4dbe917b44f3b4fbull, 0x734873f32bf36ce8ull, 0x7d4ec2fdf8ee38f0ull,
            0x34dfbeb77086ca99ull,
        },
        // CsQ4
        {
            0xb7c3a9dccc80055dull, 0xe566a66ba1262dd1ull, 0xa8dcb86e2b3523eull,
            0x537f6926f01501b9ull, 0x5e8bdc66366033e9ull, 0xff1770471ef2f66ull,
            0x6d6e7d0529de0f18ull, 0xde48ba205ccbd8cfull, 0x5a6c704abb59a89full,
            0x27605ab25620d4e6ull,
        },
        // CsQ8
        {
            0x2f4e8c0d565989d2ull, 0x638bd8b9692b3ddfull, 0xca94a000b3a29a6bull,
            0x2e35902249c03a5full, 0xa9db67789c1625b4ull, 0x71550f086267d846ull,
            0xa45db9989f5bbd66ull, 0x5522b174516eed3full, 0x4d73613ac694d900ull,
            0xb7233ff9d7573047ull,
        },
    };
    const int tiers[3] = {2, 4, 8};
    for (int t = 0; t < 3; ++t)
        for (std::size_t i = 0; i < std::size(kQsgdGoldenCases); ++i)
            EXPECT_EQ(qsgd_golden_digest(tiers[t], i), golden[t][i])
                << "CsQ" << tiers[t] << " " << kQsgdGoldenCases[i].name
                << ": 0x" << std::hex << qsgd_golden_digest(tiers[t], i)
                << "ull";
}

/// Expects `fn` to throw a std::runtime_error whose message contains
/// `needle`.
template <typename Fn>
void
expect_rejects(Fn fn, const std::string& needle, const std::string& where)
{
    try {
        fn();
        ADD_FAILURE() << where << ": accepted, expected '" << needle << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << where << ": '" << e.what() << "', expected '" << needle
            << "'";
    }
}

/// A CsQ wire gradient over `n` coordinates whose gamma stream is the
/// given bits (MSB-first, '0'/'1' characters) after the sign bitmap.
ps::WireGradient
qsgd_wire_with_stream(int bits, std::size_t n, const std::string& stream)
{
    ps::WireGradient wire;
    wire.kind = ps::CodecKind::kQsgd;
    wire.bits = bits;
    wire.count = static_cast<std::uint32_t>(n);
    wire.norms.assign((n + ps::kQsgdBucket - 1) / ps::kQsgdBucket, 1.0f);
    const std::size_t sign_bytes = (n + 7) / 8;
    wire.payload.assign(sign_bytes + (stream.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < stream.size(); ++i)
        if (stream[i] == '1')
            wire.payload[sign_bytes + i / 8] |=
                static_cast<std::uint8_t>(0x80u >> (i % 8));
    return wire;
}

TEST(NetQsgd, DecodeRejectsTrailingBytes)
{
    rng::Xorshift128Plus fill(404);
    for (const int bits : {2, 4, 8}) {
        for (const std::size_t n : {std::size_t{1}, std::size_t{300}}) {
            std::vector<float> g(n);
            for (auto& x : g)
                x = rng::to_unit_float(
                        static_cast<std::uint32_t>(fill() >> 32)) -
                    0.5f;
            rng::Xorshift128Plus dither(bits);
            ps::WireGradient wire = ps::encode_gradient(
                g.data(), n, ps::Codec::qsgd(bits), nullptr, &dither);
            ASSERT_NO_THROW(ps::decode_gradient(wire));
            wire.payload.push_back(0x00);
            expect_rejects([&] { ps::decode_gradient(wire); },
                           "trailing", "CsQ" + std::to_string(bits));
        }
    }
    // A sparse value run is held to the same rule.
    const float value[2] = {0.5f, -0.25f};
    const std::uint32_t index[2] = {1, 7};
    ps::WireGradient sparse = ps::encode_sparse_gradient(
        ps::GradientView::sparse_view(value, index, 2, 16,
                                      simd::sparse::IndexMode::kAbsolute),
        ps::Codec::qsgd(4), nullptr);
    ASSERT_NO_THROW(ps::decode_sparse_gradient(sparse));
    sparse.payload.push_back(0x00);
    expect_rejects([&] { ps::decode_sparse_gradient(sparse); }, "trailing",
                   "sparse CsQ4");
}

TEST(NetQsgd, DecodeSweepRejectsMalformedStreams)
{
    // Every proper prefix of a valid payload is truncated.
    for (const int bits : {2, 4, 8}) {
        const std::size_t n = 700;
        std::vector<float> g(n);
        rng::Xorshift128Plus fill(bits);
        for (auto& x : g)
            x = rng::to_unit_float(static_cast<std::uint32_t>(fill() >> 32)) -
                0.5f;
        rng::Xorshift128Plus dither(99);
        const ps::WireGradient wire = ps::encode_gradient(
            g.data(), n, ps::Codec::qsgd(bits), nullptr, &dither);
        for (std::size_t cut = 0; cut < wire.payload.size(); ++cut) {
            ps::WireGradient shorter = wire;
            shorter.payload.resize(cut);
            EXPECT_THROW(ps::decode_gradient(shorter), std::runtime_error)
                << "CsQ" << bits << " cut at " << cut;
        }
    }

    // A bad code at every bit offset within the decoder's byte window:
    // `offset` one-bit codes (level 0) put it at offset % 8.
    const std::size_t n = 40;
    for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::string lead(offset, '1');
        const std::string rest(n - offset - 1, '1');
        // 32 zeros: no gamma code of a 32-bit value is that long.
        expect_rejects(
            [&] {
                ps::decode_gradient(qsgd_wire_with_stream(
                    4, n, lead + std::string(32, '0') + "1" + rest));
            },
            "overlong", "overlong at offset " + std::to_string(offset));
        // CsQ4 has s = 7: gamma(9) = 0001001 is level 8.
        expect_rejects(
            [&] {
                ps::decode_gradient(
                    qsgd_wire_with_stream(4, n, lead + "0001001" + rest));
            },
            "level", "level > s at offset " + std::to_string(offset));
    }

    // Near the payload tail the 64-bit window runs off the end: the same
    // checks must hold there. 41 one-bit codes put the bad code at bit
    // 41 of a 42-coordinate stream, so each payload below ends exactly
    // where its bits say (no zero padding that would lengthen a run).
    {
        const std::size_t tail_n = 42;
        const std::string lead(tail_n - 1, '1');
        expect_rejects(
            [&] {
                ps::decode_gradient(
                    qsgd_wire_with_stream(4, tail_n, lead + "0001001"));
            },
            "level", "level > s at the tail");
        expect_rejects(
            [&] {
                ps::decode_gradient(qsgd_wire_with_stream(
                    4, tail_n, lead + std::string(32, '0')));
            },
            "overlong", "overlong at the tail");
        // 31 zeros then the end of the payload: truncated, not overlong.
        expect_rejects(
            [&] {
                ps::decode_gradient(qsgd_wire_with_stream(
                    4, tail_n, lead + std::string(31, '0')));
            },
            "truncated", "truncated at the tail");
        // A code whose value bits run past the last byte.
        expect_rejects(
            [&] {
                ps::decode_gradient(
                    qsgd_wire_with_stream(4, tail_n, lead + "00001"));
            },
            "truncated", "truncated mid-code at the tail");
    }

    // The sparse index stream shares the reader: every cut of a valid
    // index payload is rejected.
    std::vector<std::uint32_t> index;
    std::vector<float> value;
    for (std::uint32_t k = 3; k < 60000; k += 1 + (k * 7919) % 997) {
        index.push_back(k);
        value.push_back(0.25f);
    }
    const ps::WireGradient sparse = ps::encode_sparse_gradient(
        ps::GradientView::sparse_view(value.data(), index.data(),
                                      index.size(), 65536,
                                      simd::sparse::IndexMode::kAbsolute),
        ps::Codec::from_bits(8), nullptr);
    ASSERT_EQ(ps::decode_sparse_gradient(sparse).index, index);
    // Gaps up to 2^32 - 2: gamma codes of up to 63 bits, wider than one
    // refill of the reader's window, round-trip too.
    {
        const std::uint32_t wide[4] = {0, 1u << 20, (1u << 31) + 7,
                                       0xFFFFFFFEu};
        const float values[4] = {1.0f, -2.0f, 3.0f, -4.0f};
        const ps::WireGradient wire = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(
                values, wide, 4, 0xFFFFFFFFu,
                simd::sparse::IndexMode::kAbsolute),
            ps::Codec::from_bits(32), nullptr);
        const ps::SparseGradient back = ps::decode_sparse_gradient(wire);
        EXPECT_EQ(back.index, std::vector<std::uint32_t>(wide, wide + 4));
    }
    for (std::size_t cut = 0; cut < sparse.index_payload.size(); ++cut) {
        ps::WireGradient shorter = sparse;
        shorter.index_payload.resize(cut);
        EXPECT_THROW(ps::decode_sparse_gradient(shorter),
                     std::runtime_error)
            << "index stream cut at " << cut;
    }
}

// ===================================================== NetTransport

/// A listening "shard-side" transport and a dialing "client-side" one,
/// covering endpoints {0} and {1} of a 2-endpoint cluster.
struct TransportPair
{
    std::unique_ptr<ps::SocketTransport> server, client;

    explicit TransportPair(ps::FaultModel client_faults = {})
    {
        ps::SocketTransportConfig s;
        s.endpoints = 2;
        s.local = {0};
        s.listen = true;
        server = std::make_unique<ps::SocketTransport>(std::move(s));

        ps::SocketTransportConfig c;
        c.endpoints = 2;
        c.local = {1};
        c.peers[0] = {"127.0.0.1", server->port()};
        c.faults = client_faults;
        client = std::make_unique<ps::SocketTransport>(std::move(c));
    }

    ~TransportPair()
    {
        client->close();
        server->close();
    }
};

TEST(NetTransport, DeliversAndRepliesOverLoopback)
{
    TransportPair pair;
    // Echo thread on the server endpoint: replies over the learned route.
    WorkerGroup echo;
    echo.start(1, [&](std::size_t) {
        ps::Message m;
        for (;;) {
            if (!pair.server->recv(0, m, std::chrono::microseconds(500))) {
                if (pair.server->closed()) return;
                continue;
            }
            ps::Message reply;
            reply.kind = ps::Message::Kind::kAck;
            reply.token = m.token;
            reply.clock = m.clock;
            pair.server->send(m.sender, std::move(reply));
        }
    });

    ps::RpcClient rpc(*pair.client, 1);
    for (std::uint64_t c = 1; c <= 20; ++c) {
        ps::Message request;
        request.kind = ps::Message::Kind::kPull;
        request.clock = c;
        const ps::Message reply = rpc.call(0, std::move(request));
        EXPECT_EQ(reply.clock, c);
    }
    pair.server->close();
    echo.join();
    EXPECT_GE(pair.client->sent(), 20u);
    EXPECT_GT(pair.client->sent_bytes(), 0u);
    EXPECT_GT(pair.client->recv_bytes(), 0u);
}

TEST(NetTransport, RpcRetriesThroughInjectedDrops)
{
    ps::FaultModel faults;
    faults.drop_prob = 0.25;
    faults.seed = 99;
    TransportPair pair(faults);
    WorkerGroup echo;
    echo.start(1, [&](std::size_t) {
        ps::Message m;
        for (;;) {
            if (!pair.server->recv(0, m, std::chrono::microseconds(500))) {
                if (pair.server->closed()) return;
                continue;
            }
            ps::Message reply;
            reply.kind = ps::Message::Kind::kAck;
            reply.token = m.token;
            reply.clock = m.clock;
            pair.server->send(m.sender, std::move(reply));
        }
    });

    ps::RpcClient rpc(*pair.client, 1);
    for (std::uint64_t c = 1; c <= 50; ++c) {
        ps::Message request;
        request.kind = ps::Message::Kind::kPull;
        request.clock = c;
        const ps::Message reply = rpc.call(0, std::move(request));
        EXPECT_EQ(reply.clock, c); // the reply to THIS call, never stale
    }
    pair.server->close();
    echo.join();
    // A quarter of the traffic vanished; the protocol recovered all of it.
    EXPECT_GT(pair.client->dropped(), 0u);
    EXPECT_GT(rpc.retries(), 0u);
}

// ===================================================== NetRpc

TEST(NetRpc, CallAllKeepsTwoShardsInFlight)
{
    // Two listening shard transports (endpoints 0 and 1) and a client
    // (endpoint 2) with requests to both in flight at once: replies
    // arrive on two reader threads in any order and still come back in
    // request order.
    std::unique_ptr<ps::SocketTransport> shards[2];
    ps::SocketTransportConfig c;
    c.endpoints = 3;
    c.local = {2};
    for (std::size_t s = 0; s < 2; ++s) {
        ps::SocketTransportConfig cfg;
        cfg.endpoints = 3;
        cfg.local = {s};
        cfg.listen = true;
        shards[s] = std::make_unique<ps::SocketTransport>(std::move(cfg));
        c.peers[s] = {"127.0.0.1", shards[s]->port()};
    }
    ps::SocketTransport client(std::move(c));

    WorkerGroup echo;
    echo.start(2, [&](std::size_t s) {
        ps::Transport& transport = *shards[s];
        ps::Message m;
        for (;;) {
            if (!transport.recv(s, m, std::chrono::microseconds(500))) {
                if (transport.closed()) return;
                continue;
            }
            ps::Message reply;
            reply.kind = ps::Message::Kind::kAck;
            reply.token = m.token;
            reply.clock = m.clock;
            reply.version = s;
            transport.send(m.sender, std::move(reply));
        }
    });

    ps::RpcClient rpc(client, 2);
    const std::vector<std::size_t> to = {0, 0, 1, 1};
    for (std::uint64_t c0 = 1; c0 <= 200; c0 += 4) {
        std::vector<ps::Message> requests(4);
        for (std::size_t i = 0; i < 4; ++i) {
            requests[i].kind = ps::Message::Kind::kPull;
            requests[i].clock = c0 + i;
        }
        const std::vector<ps::Message> replies = rpc.call_all(to, requests);
        ASSERT_EQ(replies.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(replies[i].clock, c0 + i);
            EXPECT_EQ(replies[i].version, to[i]); // answered by its shard
        }
    }
    client.close();
    for (auto& shard : shards) shard->close();
    echo.join();
}

TEST(NetTransport, PayloadsCrossTheSocketBitIdentically)
{
    TransportPair pair;
    ps::Message m = sample_push();
    m.sender = 1; // our endpoint in this 2-endpoint cluster
    const std::vector<float> sent_decode = ps::decode_gradient(m.gradient);
    const std::vector<std::uint8_t> sent_payload = m.gradient.payload;
    pair.client->send(0, std::move(m));
    ps::Message out;
    ASSERT_TRUE(pair.server->recv(0, out, std::chrono::microseconds(
                                              2 * 1000 * 1000)));
    EXPECT_EQ(out.gradient.payload, sent_payload);
    EXPECT_EQ(ps::decode_gradient(out.gradient), sent_decode);
}

// ======================================================= NetCluster

/// Runs a full S-shard, W-worker cluster as separate SocketTransports
/// over loopback — threads standing in for processes, same fabric the
/// forked topology uses (tests/test_net must stay runnable under TSan,
/// where fork-based assertions would not be).
template <typename Problem>
ps::ClusterResult
train_over_sockets(const Problem& problem, const ps::ClusterConfig& cfg)
{
    const std::size_t shards = cfg.shards;
    // Bind every shard listener first: race-free advertised ports.
    std::vector<net::Fd> listeners(shards);
    std::vector<net::Address> addresses(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        listeners[s] = net::listen_tcp("127.0.0.1", 0, 16, &port, &error);
        EXPECT_TRUE(listeners[s].valid()) << error;
        addresses[s] = {"127.0.0.1", port};
    }

    std::vector<ps::ShardMetrics> shard_metrics(shards);
    WorkerGroup shard_threads;
    shard_threads.start(shards, [&](std::size_t s) {
        ps::ShardNodeOptions options;
        options.index = s;
        options.adopt_listen_fd = listeners[s].release();
        shard_metrics[s] = ps::run_shard_node(cfg, problem.dim, options);
    });

    std::vector<ps::WorkerStats> worker_stats(cfg.workers);
    WorkerGroup worker_threads;
    worker_threads.start(cfg.workers, [&](std::size_t w) {
        worker_stats[w] = ps::run_worker_node(cfg, problem, w, addresses);
    });
    worker_threads.join();

    ps::ClusterResult result;
    result.comm = cfg.codec.name();
    {
        ps::ControlClient control(cfg, addresses);
        const std::vector<float> model = control.snapshot(problem.dim);
        ps::evaluate_model(problem, cfg.loss, model, &result.final_loss,
                           &result.accuracy);
        result.metrics.shards = control.stats();
        control.shutdown();
    }
    shard_threads.join();
    for (const ps::WorkerStats& w : worker_stats) {
        result.rounds += w.rounds;
        result.metrics.rpc_retries += w.retries;
    }
    return result;
}

ps::ClusterConfig
socket_cluster_config(const ps::Codec& codec)
{
    ps::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.codec = codec;
    cfg.rounds = 100;
    cfg.batch = 16;
    cfg.tau = 8;
    cfg.step_size = 0.25f;
    return cfg;
}

TEST(NetCluster, SocketClusterMatchesInProcessConvergence)
{
    const auto& problem = testutil::cluster_problem();
    for (const ps::Codec& codec :
         {ps::Codec::from_bits(32), ps::Codec::qsgd(4)}) {
        const ps::ClusterConfig cfg = socket_cluster_config(codec);
        const ps::ClusterResult socket = train_over_sockets(problem, cfg);
        const ps::ClusterResult inproc = ps::train_cluster(problem, cfg);
        EXPECT_EQ(socket.rounds, 200u) << codec.name();
        EXPECT_EQ(socket.metrics.total_pushes(), 400u) << codec.name();
        // Same round loop, same codec arithmetic, different fabric: the
        // two runs converge alike (asynchrony makes them nondeterministic,
        // so "alike" is a tolerance, not equality).
        EXPECT_NEAR(socket.accuracy, inproc.accuracy, 0.05) << codec.name();
        EXPECT_LT(socket.final_loss, inproc.final_loss + 0.1)
            << codec.name();
    }
#if BUCKWILD_OBS_ENABLED
    // The real framed traffic registered in the obs counters (compiled
    // out — and so legitimately zero — under -DBUCKWILD_OBS=OFF).
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("net.sent_bytes")
                  .value(),
              0u);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("net.frames_recv")
                  .value(),
              0u);
#endif
}

TEST(NetCluster, SurvivesFaultInjectionOverSockets)
{
    // The acceptance criterion: drop/reorder/retransmit chaos against
    // the REAL socket transport, protocol still exactly-once.
    const auto& problem = testutil::cluster_problem();
    ps::ClusterConfig cfg = socket_cluster_config(ps::Codec::from_bits(1));
    cfg.tau = 6;
    cfg.faults.drop_prob = 0.05;
    cfg.faults.jitter_us = 5;
    cfg.faults.reorder_window = 3;
    const ps::ClusterResult r = train_over_sockets(problem, cfg);
    EXPECT_GT(r.metrics.rpc_retries, 0u); // drops really happened
    // Exactly-once: every round applied despite retransmissions.
    EXPECT_EQ(r.metrics.total_pushes(), 2u * 2u * 100u);
    EXPECT_LE(r.metrics.max_staleness(), 6u);
    EXPECT_GT(r.accuracy, 0.75);
}

TEST(NetCluster, SparsePushesCrossRealSockets)
{
    // The sparse gradient path over the REAL socket fabric: gamma-coded
    // index streams framed, shipped, and gather-scatter applied, with
    // nnz accounting surviving the trip.
    const auto& problem = testutil::sparse_cluster_problem();
    for (const ps::Codec& codec :
         {ps::Codec::from_bits(32), ps::Codec::qsgd(4)}) {
        const ps::ClusterConfig cfg = socket_cluster_config(codec);
        const ps::ClusterResult socket = train_over_sockets(problem, cfg);
        const ps::ClusterResult inproc = ps::train_cluster(problem, cfg);
        EXPECT_EQ(socket.rounds, 200u) << codec.name();
        EXPECT_EQ(socket.metrics.total_pushes(), 400u) << codec.name();
        EXPECT_GT(socket.metrics.total_sparse_nnz(), 0u) << codec.name();
        EXPECT_GT(socket.metrics.total_sparse_bytes(), 0u) << codec.name();
        EXPECT_NEAR(socket.accuracy, inproc.accuracy, 0.05) << codec.name();
    }
}

} // namespace
} // namespace buckwild
