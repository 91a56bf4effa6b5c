/**
 * @file
 * Message transport between workers and parameter-server shards, with an
 * injectable fault model.
 *
 * Transport is an interface with two executions:
 *
 *  - InProcTransport: every endpoint is a Mailbox in one process —
 *    threads as the cluster. This is the seed fabric, unchanged.
 *  - SocketTransport (ps/socket_transport.h): endpoints spread across
 *    processes, messages serialized (ps/wire.h) and framed (net/frame.h)
 *    over real TCP connections.
 *
 * Every endpoint (shard, worker, control) owns a mailbox; send() never
 * blocks the receiver's processing and recv() blocks with a timeout.
 * The point of routing all shard traffic through messages — rather than
 * calling shard methods directly — is that the communication layer
 * becomes a swappable, testable component: the FaultModel can delay
 * (latency jitter), reorder (bounded out-of-order delivery), or drop
 * messages, and the training protocol on top must still converge —
 * over either fabric.
 *
 * Reliability is the *protocol's* job, exactly as on a real network:
 * RpcClient implements request/reply with timeout-and-retransmit
 * (drop-with-retry) and token matching, and the shard side deduplicates
 * retransmitted pushes by worker clock, so an applied-but-unacked push
 * is never applied twice.
 */
#ifndef BUCKWILD_PS_TRANSPORT_H
#define BUCKWILD_PS_TRANSPORT_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/tracectx.h"
#include "ps/quantize.h"
#include "rng/xorshift.h"

namespace buckwild::ps {

/// Communication faults injected by the transport, seeded for
/// reproducibility.
struct FaultModel
{
    /// Probability a send is silently dropped (sender learns nothing —
    /// recovery is the RPC layer's timeout-and-retransmit).
    double drop_prob = 0.0;
    /// Max extra delivery latency in microseconds, uniform per message.
    std::size_t jitter_us = 0;
    /// Delivery window: a recv may return any of the first `window`
    /// queued messages (1 = strict FIFO).
    std::size_t reorder_window = 1;
    std::uint64_t seed = 0xFA17;

    bool any() const
    {
        return drop_prob > 0.0 || jitter_us > 0 || reorder_window > 1;
    }
};

/// One message between a worker and a shard.
struct Message
{
    enum class Kind {
        kPush,   ///< worker -> shard: quantized gradient for the shard's slice
        kAck,    ///< shard -> worker: push outcome (accepted / staleness-gated)
        kPull,   ///< worker -> shard: request the current slice
        kModel,  ///< shard -> worker: slice weights + version
        kRetire, ///< worker -> shard: done pushing; drop me from the SSP gate
        kStats,  ///< control -> shard: request counters; reply carries `stats`
        kShutdown, ///< control -> shard: ack, then exit the message loop
    };

    Kind kind = Kind::kPush;
    std::uint32_t sender = 0;  ///< endpoint to reply to
    std::uint64_t token = 0;   ///< request/reply correlation (RpcClient)
    std::uint32_t worker = 0;  ///< logical worker id (clock owner)
    std::uint64_t clock = 0;   ///< worker's round counter (kPush: 1-based)
    std::uint64_t version = 0; ///< shard version (kAck / kModel)
    bool accepted = true;      ///< kAck: false = gated, retry after backoff
    WireGradient gradient;     ///< kPush payload
    std::vector<float> weights; ///< kModel payload
    std::vector<double> stats;  ///< kStats reply: flattened ShardMetrics

    /// Distributed-trace context + timestamps. On the socket fabric this
    /// travels as the optional trailing wire block (ps/wire.h); with an
    /// invalid context nothing is emitted and the frame bytes match the
    /// pre-trace format exactly.
    obs::WireTrace trace;
    /// Local steady clock when this message was delivered (stamped by
    /// the receiving transport; never serialized). 0 = not stamped.
    std::int64_t recv_ts_ns = 0;

    /// True for the kinds a client initiates (a shard replies to these);
    /// the socket transport learns reply routes only from them.
    bool
    is_request() const
    {
        return kind == Kind::kPush || kind == Kind::kPull ||
               kind == Kind::kRetire || kind == Kind::kStats ||
               kind == Kind::kShutdown;
    }

    /// Bytes this message would occupy on an idealized wire (header +
    /// payload, no transport framing) — the byte accounting both fabrics
    /// share so Cs-tier traffic numbers are comparable across them.
    std::size_t wire_bytes() const
    {
        if (kind == Kind::kPush) return gradient.wire_bytes();
        if (kind == Kind::kModel)
            return kWireHeaderBytes + weights.size() * sizeof(float);
        if (kind == Kind::kStats)
            return kWireHeaderBytes + stats.size() * sizeof(double);
        return kWireHeaderBytes;
    }
};

/// A closable MPMC mailbox with optional bounded-reorder delivery.
class Mailbox
{
  public:
    explicit Mailbox(std::size_t reorder_window, std::uint64_t seed)
        : reorder_window_(reorder_window == 0 ? 1 : reorder_window),
          rng_(seed)
    {}

    void push(Message&& message);

    /// Pops one message (any of the first reorder_window, under faults).
    /// Returns false on timeout, or when closed and drained.
    bool pop(Message& out, std::chrono::microseconds timeout);

    void close();
    std::size_t size() const;

  private:
    const std::size_t reorder_window_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::deque<Message> items_;
    rng::Xorshift128Plus rng_; ///< reorder choice; guarded by mutex_
    bool closed_ = false;
};

/**
 * The endpoint-indexed fabric interface: shards at [0, shards), workers
 * and control after them (ps/node.h defines the layout). The
 * protocol layers (ServerShard, RpcClient, the cluster trainers) are
 * written against this interface and run unchanged over threads or TCP.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    virtual std::size_t endpoints() const = 0;
    virtual const FaultModel& faults() const = 0;

    /**
     * Delivers `message` to endpoint `to` — unless the fault model (or a
     * dead connection) drops it; the sender cannot tell (counted in
     * dropped()). Latency jitter is served on the sender's clock before
     * delivery.
     */
    virtual void send(std::size_t to, Message&& message) = 0;

    /// Receives at endpoint `at`. False on timeout or closed-and-drained.
    virtual bool recv(std::size_t at, Message& out,
                      std::chrono::microseconds timeout) = 0;

    /// Closes every local mailbox: receivers drain, then see closed.
    virtual void close() = 0;
    virtual bool closed() const = 0;

    /// The fabric's expected request/reply latency floor; RpcClient's
    /// per-attempt timeout starts here. In-proc mailboxes answer in
    /// microseconds; a real TCP hop plus shard service time does not —
    /// retransmitting on a mailbox-tuned clock would duplicate nearly
    /// every healthy call.
    virtual std::chrono::microseconds rpc_base_timeout() const
    {
        return std::chrono::microseconds(200);
    }

    // Fabric counters: messages and idealized wire bytes attempted /
    // lost / delivered (Message::wire_bytes accounting on both fabrics).
    virtual std::uint64_t sent() const = 0;
    virtual std::uint64_t dropped() const = 0;
    virtual std::uint64_t sent_bytes() const = 0;
    virtual std::uint64_t recv_bytes() const = 0;
};

/// The seed fabric: every endpoint is a mailbox in this process.
class InProcTransport final : public Transport
{
  public:
    explicit InProcTransport(std::size_t endpoints, FaultModel faults = {});

    std::size_t endpoints() const override { return mailboxes_.size(); }
    const FaultModel& faults() const override { return faults_; }

    void send(std::size_t to, Message&& message) override;
    bool recv(std::size_t at, Message& out,
              std::chrono::microseconds timeout) override;

    void close() override;
    bool closed() const override
    {
        return closed_.load(std::memory_order_acquire);
    }

    std::uint64_t sent() const override { return sent_.load(); }
    std::uint64_t dropped() const override { return dropped_.load(); }
    std::uint64_t sent_bytes() const override { return sent_bytes_.load(); }
    std::uint64_t recv_bytes() const override { return recv_bytes_.load(); }

  private:
    FaultModel faults_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::mutex fault_mutex_; ///< guards fault_rng_
    rng::Xorshift128Plus fault_rng_;
    std::atomic<bool> closed_{false};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> sent_bytes_{0};
    std::atomic<std::uint64_t> recv_bytes_{0};
};

/**
 * Request/reply over the unreliable fabric. call_all() sends a batch of
 * requests at once and gathers their replies; every request keeps its
 * own token, reply deadline and capped exponential backoff, so a drop
 * retransmits only the request it hit. One client per thread (it owns
 * its endpoint's recv side while a call is in flight).
 */
class RpcClient
{
  public:
    RpcClient(Transport& transport, std::size_t self)
        : transport_(transport), self_(self)
    {}

    /**
     * Issues `requests[i]` to endpoint `to[i]`, all in flight together,
     * and returns the matching replies in request order. Stale replies
     * (retransmission duplicates, leftovers of earlier calls) are
     * discarded by token.
     * @throws std::runtime_error when the transport closes mid-call or a
     *         request exhausts its retransmission cap.
     */
    std::vector<Message> call_all(const std::vector<std::size_t>& to,
                                  const std::vector<Message>& requests);

    /// call_all() of one request.
    Message call(std::size_t to, Message request);

    /// Retransmissions performed so far (drop-with-retry at work).
    std::uint64_t retries() const { return retries_; }

  private:
    Transport& transport_;
    std::size_t self_;
    std::uint64_t next_token_ = 1;
    std::uint64_t retries_ = 0;
};

/// Sends a copy of `request` to every shard (endpoints [0, shards)) in
/// one call_all(); the replies come back in shard order.
std::vector<Message> call_shards(RpcClient& rpc, std::size_t shards,
                                 const Message& request);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_TRANSPORT_H
