/**
 * @file
 * SocketTransport — the Transport interface over real TCP.
 *
 * One process hosts a subset of the cluster's endpoints (its `local`
 * set); every other endpoint is remote, reached either by dialing a
 * configured peer address or by replying over the connection a request
 * arrived on. The wire unit is a net/frame.h frame whose payload is a
 * 4-byte destination endpoint followed by a ps/wire.h serialized
 * Message.
 *
 * Topology conventions (the cluster endpoint layout of ps/node.h —
 * shards [0, S), workers [S, S+W), control S+W):
 *
 *  - a *shard* process listens and hosts its shard endpoint; it dials
 *    nobody. Reply routes to workers are *learned*: when a request kind
 *    (kPush/kPull/kRetire/kStats/kShutdown) arrives on a connection, its
 *    `sender` endpoint is bound to that connection, so the shard's acks
 *    and models flow back over the TCP connection the worker opened —
 *    workers need no listening port of their own.
 *  - a *worker* or *control* process hosts its own endpoint, does not
 *    listen, and dials the shard addresses it was configured with
 *    (lazily, with connect-retry — processes start in any order).
 *
 * Reliability stays the protocol's job: a send onto a dead or
 * unreachable connection is counted in dropped() and otherwise silent —
 * exactly like a FaultModel drop — and RpcClient's timeout-retransmit
 * recovers (the retransmit re-dials). The FaultModel itself also still
 * applies (drop/jitter on send, bounded reorder in the local
 * mailboxes), so the fault-injection convergence tests run unchanged
 * over real sockets.
 *
 * Byte accounting: sent_bytes()/recv_bytes() use the same idealized
 * Message::wire_bytes() the in-process fabric counts, so Cs-tier
 * traffic comparisons hold across fabrics; the *actual* framed TCP
 * bytes are exported to the obs registry as net.sent_bytes /
 * net.recv_bytes (with net.frames_sent / net.frames_recv / net.drops).
 */
#ifndef BUCKWILD_PS_SOCKET_TRANSPORT_H
#define BUCKWILD_PS_SOCKET_TRANSPORT_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "ps/transport.h"

namespace buckwild::ps {

/// Where this process sits in the cluster and how to reach the rest.
struct SocketTransportConfig
{
    /// Total endpoints in the cluster (the shared index space).
    std::size_t endpoints = 0;
    /// Endpoints hosted by this process (each gets a mailbox).
    std::vector<std::size_t> local;
    /// Remote endpoint -> address to dial (shards, from a worker's view).
    std::map<std::size_t, net::Address> peers;
    /// Listen for inbound connections (shard processes).
    bool listen = false;
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral; the bound port is readable via port().
    std::uint16_t listen_port = 0;
    /// A pre-bound listening socket inherited from a parent process
    /// (fork-based --spawn: the parent binds every shard's listener
    /// before forking, so advertised ports are race-free). Takes
    /// ownership; overrides bind_address/listen_port.
    int adopt_listen_fd = -1;
    /// How long a dial retries before the send counts as dropped.
    std::chrono::milliseconds connect_timeout{5000};
    std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
    FaultModel faults;
};

class SocketTransport final : public Transport
{
  public:
    /// @throws std::runtime_error on a bad config or un-bindable listener.
    explicit SocketTransport(SocketTransportConfig config);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport&) = delete;
    SocketTransport& operator=(const SocketTransport&) = delete;

    std::size_t endpoints() const override { return config_.endpoints; }
    const FaultModel& faults() const override { return config_.faults; }

    void send(std::size_t to, Message&& message) override;
    bool recv(std::size_t at, Message& out,
              std::chrono::microseconds timeout) override;

    /// Stops the accept/reader threads, closes every connection, and
    /// closes the local mailboxes (receivers drain, then see closed).
    void close() override;
    bool closed() const override
    {
        return closed_.load(std::memory_order_acquire);
    }

    /// A loopback TCP round trip plus shard service time sits in the
    /// low milliseconds; retransmitting on the in-proc 200us clock
    /// would duplicate nearly every healthy call.
    std::chrono::microseconds rpc_base_timeout() const override
    {
        return std::chrono::milliseconds(2);
    }

    std::uint64_t sent() const override { return sent_.load(); }
    std::uint64_t dropped() const override { return dropped_.load(); }
    std::uint64_t sent_bytes() const override { return sent_bytes_.load(); }
    std::uint64_t recv_bytes() const override { return recv_bytes_.load(); }

    /// The port this transport listens on (0 when not listening).
    std::uint16_t port() const { return port_; }

  private:
    /// One TCP connection: writes serialized under the mutex, reads
    /// demultiplexed to mailboxes by a dedicated thread.
    struct Connection
    {
        net::Fd fd;
        std::mutex write_mutex;
        std::thread reader;
        std::atomic<bool> dead{false};
        /// True when accept_loop produced this connection. Only inbound
        /// connections carry requests, so only they teach reply routes;
        /// everything read on a dialed connection is a reply, and a
        /// reply whose kind overlaps a request kind (kStats) must not
        /// overwrite the dialer's routing table.
        bool accepted = false;
    };

    Mailbox* local_mailbox(std::size_t endpoint) const;
    std::shared_ptr<Connection> route_for(std::size_t to);
    std::shared_ptr<Connection> adopt_connection(net::Fd fd);
    void reader_loop(const std::shared_ptr<Connection>& connection);
    void accept_loop();
    bool write_message(Connection& connection, std::size_t to,
                       const Message& message);

    const SocketTransportConfig config_;
    std::map<std::size_t, std::unique_ptr<Mailbox>> mailboxes_;
    net::Fd listen_fd_;
    std::uint16_t port_ = 0;
    std::thread acceptor_;

    std::mutex conn_mutex_; ///< guards connections_, routes_, dialed_
    std::vector<std::shared_ptr<Connection>> connections_;
    /// endpoint -> connection, learned from inbound requests or dialing.
    std::map<std::size_t, std::shared_ptr<Connection>> routes_;
    /// address -> connection, so endpoints co-hosted by one peer process
    /// share a single TCP connection.
    std::map<std::string, std::shared_ptr<Connection>> dialed_;

    std::mutex fault_mutex_; ///< guards fault_rng_
    rng::Xorshift128Plus fault_rng_;

    std::atomic<bool> closed_{false};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> sent_bytes_{0};
    std::atomic<std::uint64_t> recv_bytes_{0};
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_SOCKET_TRANSPORT_H
