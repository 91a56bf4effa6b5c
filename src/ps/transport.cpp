#include "ps/transport.h"

#include <algorithm>
#include <thread>

#include "obs/obs.h"
#include "util/logging.h"

namespace buckwild::ps {

// --------------------------------------------------------------- Mailbox

void
Mailbox::push(Message&& message)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_) return; // late delivery after shutdown: drop
        items_.push_back(std::move(message));
    }
    not_empty_.notify_one();
}

bool
Mailbox::pop(Message& out, std::chrono::microseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return !items_.empty() || closed_; }))
        return false;
    if (items_.empty()) return false; // closed and drained
    std::size_t pick = 0;
    if (reorder_window_ > 1 && items_.size() > 1) {
        const std::size_t window =
            std::min(reorder_window_, items_.size());
        pick = static_cast<std::size_t>(rng_() % window);
    }
    out = std::move(items_[pick]);
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(pick));
    return true;
}

void
Mailbox::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
}

std::size_t
Mailbox::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

// ------------------------------------------------- InProcTransport

InProcTransport::InProcTransport(std::size_t endpoints, FaultModel faults)
    : faults_(faults), fault_rng_(faults.seed)
{
    if (endpoints == 0) fatal("transport needs at least one endpoint");
    if (faults_.drop_prob < 0.0 || faults_.drop_prob >= 1.0)
        fatal("drop_prob must be in [0, 1)");
    mailboxes_.reserve(endpoints);
    std::uint64_t seed = faults.seed;
    for (std::size_t e = 0; e < endpoints; ++e)
        mailboxes_.push_back(std::make_unique<Mailbox>(
            faults.reorder_window, rng::splitmix64(seed)));
}

void
InProcTransport::send(std::size_t to, Message&& message)
{
    if (to >= mailboxes_.size()) panic("send to unknown endpoint");
    sent_.fetch_add(1, std::memory_order_relaxed);
    sent_bytes_.fetch_add(message.wire_bytes(), std::memory_order_relaxed);
    BUCKWILD_OBS_COUNT("ps.transport.sent", 1);
    BUCKWILD_OBS_COUNT("ps.transport.sent_bytes", message.wire_bytes());
    if (faults_.any()) {
        std::size_t delay_us = 0;
        bool drop = false;
        {
            std::lock_guard<std::mutex> lock(fault_mutex_);
            if (faults_.drop_prob > 0.0) {
                const double u =
                    static_cast<double>(fault_rng_() >> 11) * 0x1.0p-53;
                drop = u < faults_.drop_prob;
            }
            if (!drop && faults_.jitter_us > 0)
                delay_us = static_cast<std::size_t>(
                    fault_rng_() % (faults_.jitter_us + 1));
        }
        if (drop) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            BUCKWILD_OBS_COUNT("ps.transport.dropped", 1);
            BUCKWILD_OBS_INSTANT("ps", "transport.drop");
            return;
        }
        if (delay_us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    // Delivery timestamp for hop decomposition and clock-offset echoes.
    // In-proc "delivery" is this push; the socket fabric stamps in its
    // reader loop instead.
    message.recv_ts_ns = obs::trace_now_ns();
    mailboxes_[to]->push(std::move(message));
}

bool
InProcTransport::recv(std::size_t at, Message& out,
                      std::chrono::microseconds timeout)
{
    if (at >= mailboxes_.size()) panic("recv at unknown endpoint");
    if (!mailboxes_[at]->pop(out, timeout)) return false;
    recv_bytes_.fetch_add(out.wire_bytes(), std::memory_order_relaxed);
    return true;
}

void
InProcTransport::close()
{
    closed_.store(true, std::memory_order_release);
    for (auto& mailbox : mailboxes_) mailbox->close();
}

// ------------------------------------------------------------- RpcClient

std::vector<Message>
RpcClient::call_all(const std::vector<std::size_t>& to,
                    const std::vector<Message>& requests)
{
    using Clock = std::chrono::steady_clock;
    if (to.size() != requests.size())
        panic("rpc: call_all needs one endpoint per request");
    const std::size_t n = requests.size();
    std::vector<Message> replies(n);
    // Tokens [first_token, first_token + n) belong to this call, so a
    // reply maps to its request by subtraction; anything outside the
    // range is a leftover of an earlier call.
    const std::uint64_t first_token = next_token_;
    next_token_ += n;

    // The per-attempt reply timeout must comfortably exceed both the
    // fabric's latency floor and the injected jitter (both directions),
    // or healthy-but-slow messages would be retransmitted forever.
    const auto base = std::max(
        transport_.rpc_base_timeout(),
        std::chrono::microseconds(8 * transport_.faults().jitter_us));
    constexpr int kMaxAttempts = 400;

    struct InFlight
    {
        int attempts = 0;
        Clock::time_point deadline;
        obs::TraceContext ctx;     ///< rides every attempt
        std::int64_t start_ns = 0; ///< rpc.call span start (traced only)
        bool answered = false;
    };
    std::vector<InFlight> flight(n);

    const auto transmit = [&](std::size_t i) {
        InFlight& f = flight[i];
        if (f.attempts == kMaxAttempts)
            fatal("rpc: no reply after " + std::to_string(kMaxAttempts) +
                  " attempts (drop_prob too high or peer gone)");
        if (f.attempts > 0) {
            ++retries_;
            BUCKWILD_OBS_COUNT("ps.rpc.retransmits", 1);
            BUCKWILD_OBS_INSTANT("ps", "rpc.retransmit");
        }
        Message copy = requests[i];
        copy.sender = static_cast<std::uint32_t>(self_);
        copy.token = first_token + i;
        copy.trace.ctx = f.ctx;
        // Stamp per attempt: the responder echoes the send_ts of the
        // transmission it actually answered, keeping the NTP sample
        // honest across retransmits.
        if (copy.trace.ctx.valid())
            copy.trace.send_ts_ns = obs::trace_now_ns();
        transport_.send(to[i], std::move(copy));
        f.deadline = Clock::now() +
                     base * (f.attempts < 8 ? (1 << f.attempts) : 256);
        ++f.attempts;
    };

    const bool tracing = obs::Tracer::global().enabled();
    for (std::size_t i = 0; i < n; ++i) {
        // Mint the distributed-trace identity at the RPC origin. The
        // root context (or one the caller pre-attached) rides the wire
        // with each attempt; the responder's spans and the clock-offset
        // sample from its reply all carry the same trace id.
        InFlight& f = flight[i];
        f.ctx = requests[i].trace.ctx;
        if (tracing && !f.ctx.valid()) f.ctx = obs::make_root_context();
        if (f.ctx.valid()) f.start_ns = obs::trace_now_ns();
        transmit(i);
    }

    std::size_t outstanding = n;
    while (outstanding > 0) {
        // Retransmit every request whose reply deadline passed; wait
        // for the next reply no longer than the earliest deadline left.
        Clock::time_point next = Clock::time_point::max();
        for (std::size_t i = 0; i < n; ++i) {
            if (flight[i].answered) continue;
            if (flight[i].deadline <= Clock::now()) transmit(i);
            next = std::min(next, flight[i].deadline);
        }
        const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
            next - Clock::now());
        Message reply;
        if (!transport_.recv(self_, reply,
                             std::max(wait, std::chrono::microseconds(0)))) {
            if (transport_.closed())
                fatal("rpc: transport closed mid-call");
            continue; // a deadline passed: retransmit
        }
        // Stale duplicate of an answered request, or a late reply to an
        // earlier call: discard.
        if (reply.token < first_token || reply.token - first_token >= n)
            continue;
        const std::size_t i =
            static_cast<std::size_t>(reply.token - first_token);
        if (flight[i].answered) continue;
        flight[i].answered = true;
        --outstanding;
        if (reply.trace.ctx.valid()) {
            const std::int64_t recv_ns = reply.recv_ts_ns != 0
                                             ? reply.recv_ts_ns
                                             : obs::trace_now_ns();
            const obs::ClockSample sample =
                obs::clock_sample_from_reply(reply.trace, recv_ns);
            if (sample.valid)
                obs::Tracer::global().clocksync("ps", reply.trace.ctx,
                                                sample.offset_ns,
                                                sample.rtt_ns);
            if (flight[i].start_ns != 0)
                obs::Tracer::global().complete(
                    "ps", "rpc.call", flight[i].start_ns,
                    obs::trace_now_ns() - flight[i].start_ns,
                    flight[i].ctx);
        }
        replies[i] = std::move(reply);
    }
    return replies;
}

Message
RpcClient::call(std::size_t to, Message request)
{
    std::vector<Message> one(1);
    one[0] = std::move(request);
    return std::move(call_all({to}, one).front());
}

std::vector<Message>
call_shards(RpcClient& rpc, std::size_t shards, const Message& request)
{
    std::vector<std::size_t> to(shards);
    for (std::size_t s = 0; s < shards; ++s) to[s] = s;
    return rpc.call_all(to, std::vector<Message>(shards, request));
}

} // namespace buckwild::ps
