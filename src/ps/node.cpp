#include "ps/node.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/export.h"
#include "obs/fleet.h"
#include "obs/http_exporter.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "ps/shard.h"
#include "ps/wire.h"
#include "ps/workload.h"
#include "simd/ops.h"
#include "simd/sparse_ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace buckwild::ps {

// ------------------------------------------------------ worker rounds

namespace {

/// Copies shard s's slice out of a kModel reply into the full model.
void
place_slice(const Message& reply, std::size_t shards, std::size_t s,
            std::vector<float>& model)
{
    const std::size_t begin = slice_begin(model.size(), shards, s);
    if (reply.weights.size() != slice_end(model.size(), shards, s) - begin)
        fatal("pull reply does not match the shard slice");
    std::copy(reply.weights.begin(), reply.weights.end(),
              model.begin() + static_cast<std::ptrdiff_t>(begin));
}

Message
pull_request(std::uint32_t worker)
{
    Message pull;
    pull.kind = Message::Kind::kPull;
    pull.worker = worker;
    return pull;
}

/// Pulls every shard's slice into `model` in one call_all. Slices may
/// sit at different versions — that inconsistency is the asynchrony the
/// C-term error feedback has to absorb.
void
pull_model(RpcClient& rpc, std::size_t shards, std::uint32_t worker,
           std::vector<float>& model)
{
    const std::vector<Message> replies =
        call_shards(rpc, shards, pull_request(worker));
    for (std::size_t s = 0; s < shards; ++s)
        place_slice(replies[s], shards, s, model);
}

/// Re-sends a push the SSP gate nacked, backing off between tries, until
/// shard `s` accepts it; returns the accepted ack's version.
std::uint64_t
push_with_backoff(RpcClient& rpc, std::size_t s, const Message& push)
{
    for (;;) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        const Message ack = rpc.call(s, push);
        if (ack.accepted) return ack.version;
    }
}

/// A worker-side round hop, ps.hop_seconds{hop=`hop`}. With the
/// minibatch time (ps.worker.seconds), encode + exchange + ssp_wait add
/// up to the round: each is the lap from the end of the one before.
obs::Histo&
hop_histogram(const char* hop)
{
    return obs::MetricsRegistry::global().histogram(
        obs::labeled("ps.hop_seconds", {{"hop", hop}}));
}

/// Seconds since `mark`, moving `mark` to now.
double
lap(std::chrono::steady_clock::time_point& mark)
{
    const auto now = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(now - mark).count();
    mark = now;
    return seconds;
}

/**
 * One round's traffic: a single call_all carrying push_s then pull_s
 * for every shard s (no pulls when `model` is null — the last round).
 * A shard's mailbox is FIFO, so pull_s normally returns the slice with
 * this push applied. The invariant that makes it unconditional: a pull
 * reply whose version is below the push ack's version was served
 * before the push was applied (reordered, or the push was dropped and
 * retransmitted, or gated), so that shard is pulled again — the next
 * round's model always holds this worker's own last push. Returns the
 * seconds spent backing off the SSP gate (each wait also lands in
 * `ssp_wait`).
 */
double
exchange_round(RpcClient& rpc, std::size_t shards, std::uint32_t worker,
               std::uint64_t round, std::vector<WireGradient>& wires,
               std::vector<float>* model, obs::Histo& ssp_wait)
{
    const std::size_t per_shard = model != nullptr ? 2 : 1;
    std::vector<std::size_t> to;
    std::vector<Message> requests;
    to.reserve(shards * per_shard);
    requests.reserve(shards * per_shard);
    for (std::size_t s = 0; s < shards; ++s) {
        Message push;
        push.kind = Message::Kind::kPush;
        push.worker = worker;
        push.clock = round;
        push.gradient = std::move(wires[s]);
        to.push_back(s);
        requests.push_back(std::move(push));
        if (model == nullptr) continue;
        to.push_back(s);
        requests.push_back(pull_request(worker));
    }
    const std::vector<Message> replies = rpc.call_all(to, requests);

    double waited = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
        const Message& ack = replies[s * per_shard];
        std::uint64_t version = ack.version;
        if (!ack.accepted) {
            // This worker ran too far ahead: back off alone until the
            // slow workers' pushes open the shard's gate.
            Stopwatch gate_clock;
            version = push_with_backoff(rpc, s, requests[s * per_shard]);
            const double seconds = gate_clock.seconds();
            ssp_wait.record(seconds);
            waited += seconds;
        }
        if (model == nullptr) continue;
        const Message& slice = replies[s * per_shard + 1];
        if (slice.version >= version) {
            place_slice(slice, shards, s, *model);
            continue;
        }
        place_slice(rpc.call(s, pull_request(worker)), shards, s, *model);
    }
    return waited;
}

/**
 * The round loop both workloads share: pull once, then per round
 * `minibatch(round)` computes the gradient (returning the numbers it
 * touched), `encode(wires, stats)` quantizes shard s's slice into
 * wires[s], and one exchange pushes them all and pulls the next model.
 */
template <typename Minibatch, typename Encode>
WorkerStats
run_rounds(const ClusterConfig& config, std::size_t worker,
           Transport& transport, std::atomic<std::uint64_t>* rounds_done,
           std::vector<float>& model, Minibatch&& minibatch,
           Encode&& encode)
{
    Stopwatch clock;
    WorkerStats stats;
    RpcClient rpc(transport, worker_endpoint_of(config, worker));
    obs::Histo& hop_encode = hop_histogram("encode");
    obs::Histo& hop_exchange = hop_histogram("exchange");
    obs::Histo& hop_ssp_wait = hop_histogram("ssp_wait");
    const auto id = static_cast<std::uint32_t>(worker);
    std::vector<WireGradient> wires(config.shards);

    pull_model(rpc, config.shards, id, model);
    for (std::uint64_t round = 1; round <= config.rounds; ++round) {
        BUCKWILD_OBS_SPAN("ps", "worker.round");
        [[maybe_unused]] const auto round_start =
            std::chrono::steady_clock::now();
        auto mark = round_start;
        [[maybe_unused]] double numbers = 0.0;
        {
            BUCKWILD_OBS_SPAN("ps", "worker.minibatch");
            numbers = minibatch(round);
        }
        [[maybe_unused]] const double minibatch_seconds = lap(mark);
        // Cumulative GNPS inputs for the live conformance watchdog:
        // numbers touched / seconds busy in compute.
        BUCKWILD_OBS_GAUGE_ADD("ps.worker.numbers", numbers);
        BUCKWILD_OBS_GAUGE_ADD("ps.worker.seconds", minibatch_seconds);
        {
            BUCKWILD_OBS_SPAN("ps", "worker.encode");
            encode(wires, stats);
        }
        for (const WireGradient& wire : wires) {
            stats.encoded_bytes += wire.wire_bytes();
            BUCKWILD_OBS_COUNT("ps.worker.encoded_bytes", wire.wire_bytes());
        }
        hop_encode.record(lap(mark));
        double waited = 0.0;
        {
            BUCKWILD_OBS_SPAN("ps", "worker.exchange");
            waited = exchange_round(rpc, config.shards, id, round, wires,
                                    round < config.rounds ? &model : nullptr,
                                    hop_ssp_wait);
        }
        hop_exchange.record(lap(mark) - waited);
        BUCKWILD_OBS_HISTO(
            "ps.worker.round_seconds",
            std::chrono::duration<double>(mark - round_start).count());
        ++stats.rounds;
        if (rounds_done != nullptr)
            rounds_done->fetch_add(1, std::memory_order_acq_rel);
    }

    // Leave the SSP gate so the remaining workers are not held to this
    // worker's final clock.
    Message retire;
    retire.kind = Message::Kind::kRetire;
    retire.worker = id;
    call_shards(rpc, config.shards, retire);

    stats.seconds = clock.seconds();
    stats.retries = rpc.retries();
    return stats;
}

} // namespace

WorkerStats
run_worker_rounds(const ClusterConfig& config,
                  const dataset::DenseProblem& problem, std::size_t worker,
                  Transport& transport,
                  std::atomic<std::uint64_t>* rounds_done)
{
    const std::size_t dim = problem.dim;
    const std::size_t shards = config.shards;
    const std::size_t workers = config.workers;

    // Worker w trains on its own contiguous slice of the examples —
    // the data-parallel D partition — cycling through it in
    // mini-batches of config.batch.
    const std::size_t ex_begin = worker * problem.examples / workers;
    const std::size_t ex_end = (worker + 1) * problem.examples / workers;
    const std::size_t ex_count = ex_end - ex_begin;

    std::vector<float> model(dim, 0.0f);
    std::vector<float> gradient(dim);
    std::vector<float> residual;
    const bool feedback =
        config.error_feedback && config.codec.kind != CodecKind::kDense;
    if (feedback) residual.assign(dim, 0.0f);

    // Per-worker stochastic-rounding stream for the CsQ tiers; seeded
    // from the worker id so runs are reproducible and workers
    // independent.
    std::uint64_t seed_state =
        0xC5C0DEull + static_cast<std::uint64_t>(worker);
    rng::Xorshift128Plus codec_rng(rng::splitmix64(seed_state));

    const auto minibatch = [&](std::uint64_t round) {
        // Mini-batch gradient on this worker's data slice.
        using Ops = simd::DenseOps<float, float>;
        std::fill(gradient.begin(), gradient.end(), 0.0f);
        for (std::size_t b = 0; b < config.batch; ++b) {
            const std::size_t i =
                ex_begin + ((round - 1) * config.batch + b) % ex_count;
            const float* x = problem.row(i);
            const float z =
                Ops::dot(config.impl, x, model.data(), dim, 1.0f, 1.0f);
            const float g = core::loss_gradient_coefficient(
                config.loss, z, problem.y[i]);
            if (g == 0.0f) continue;
            Ops::axpy(config.impl, gradient.data(), x, dim, g, 1.0f, 1.0f,
                      simd::biased_unit());
        }
        if (feedback)
            Ops::axpy(config.impl, gradient.data(), residual.data(), dim,
                      1.0f, 1.0f, 1.0f, simd::biased_unit());
        return static_cast<double>(config.batch) * static_cast<double>(dim);
    };
    const auto encode = [&](std::vector<WireGradient>& wires, WorkerStats&) {
        for (std::size_t s = 0; s < shards; ++s) {
            const std::size_t begin = slice_begin(dim, shards, s);
            wires[s] = encode_gradient(
                gradient.data() + begin, slice_end(dim, shards, s) - begin,
                config.codec, feedback ? residual.data() + begin : nullptr,
                &codec_rng);
        }
    };
    return run_rounds(config, worker, transport, rounds_done, model,
                      minibatch, encode);
}

WorkerStats
run_worker_rounds(const ClusterConfig& config,
                  const dataset::SparseProblem& problem, std::size_t worker,
                  Transport& transport,
                  std::atomic<std::uint64_t>* rounds_done)
{
    const std::size_t dim = problem.dim;
    const std::size_t shards = config.shards;
    const std::size_t workers = config.workers;

    const std::size_t ex_begin = worker * problem.examples() / workers;
    const std::size_t ex_end = (worker + 1) * problem.examples() / workers;
    const std::size_t ex_count = ex_end - ex_begin;

    std::vector<float> model(dim, 0.0f);
    // Sparse accumulation: a dense scratch accumulator plus an explicit
    // support list, so a round costs O(touched), not O(dim).
    std::vector<float> acc(dim, 0.0f);
    std::vector<std::uint8_t> in_support(dim, 0);
    std::vector<std::uint32_t> touched;
    // touched[0, carried) is the carried residual's support, ascending.
    std::size_t carried = 0;
    const bool feedback =
        config.error_feedback && config.codec.kind != CodecKind::kDense;
    // The error-feedback residual is itself sparse: the coordinates the
    // worker has pushed with nonzero untransmitted remainder, ascending.
    std::vector<std::uint32_t> residual_index;
    std::vector<float> residual_value;
    std::vector<std::uint32_t> next_residual_index;
    std::vector<float> next_residual_value;

    std::uint64_t seed_state =
        0xC5C0DEull + static_cast<std::uint64_t>(worker);
    rng::Xorshift128Plus codec_rng(rng::splitmix64(seed_state));

    std::vector<std::uint32_t> slice_index;
    std::vector<float> slice_value;
    std::vector<float> slice_residual;

    const auto join_support = [&](const std::uint32_t* index,
                                  std::size_t count) {
        for (std::size_t j = 0; j < count; ++j)
            if (!in_support[index[j]]) {
                in_support[index[j]] = 1;
                touched.push_back(index[j]);
            }
    };
    const auto minibatch = [&](std::uint64_t round) {
        // Mini-batch gradient over only the touched coordinates. The
        // carried residual joins the support first (a coordinate with
        // pending feedback is pushed even if this minibatch missed it);
        // its AXPY still comes last, after the examples'.
        using Ops = simd::SparseOps<std::uint32_t>;
        constexpr auto kAbsolute = simd::sparse::IndexMode::kAbsolute;
        join_support(residual_index.data(), residual_index.size());
        carried = touched.size();
        std::size_t batch_numbers = 0;
        for (std::size_t b = 0; b < config.batch; ++b) {
            const std::size_t i =
                ex_begin + ((round - 1) * config.batch + b) % ex_count;
            const dataset::SparseRow& x = problem.rows[i];
            const std::size_t nnz = x.value.size();
            batch_numbers += nnz;
            const float z =
                Ops::dot(config.impl, x.value.data(), x.index.data(), nnz,
                         model.data(), 1.0f, kAbsolute);
            const float g = core::loss_gradient_coefficient(
                config.loss, z, problem.y[i]);
            if (g == 0.0f) continue;
            join_support(x.index.data(), nnz);
            Ops::axpy(config.impl, acc.data(), x.value.data(),
                      x.index.data(), nnz, g, kAbsolute);
        }
        Ops::axpy(config.impl, acc.data(), residual_value.data(),
                  residual_index.data(), residual_index.size(), 1.0f,
                  kAbsolute);
        return static_cast<double>(batch_numbers);
    };
    const auto encode = [&](std::vector<WireGradient>& wires,
                            WorkerStats& stats) {
        // Under error feedback the carried support fills most of the
        // dimension; only this minibatch's new coordinates need a sort,
        // then one merge orders the whole support in O(touched).
        const auto mid = touched.begin() + static_cast<std::ptrdiff_t>(carried);
        std::sort(mid, touched.end());
        std::inplace_merge(touched.begin(), mid, touched.end());

        // Per-range nnz split: each shard gets the (slice-local) run of
        // touched coordinates inside its range — an empty run still
        // pushes, so clocks/dedup/SSP behave exactly like the dense loop.
        next_residual_index.clear();
        next_residual_value.clear();
        auto lo = touched.begin();
        for (std::size_t s = 0; s < shards; ++s) {
            const std::size_t begin = slice_begin(dim, shards, s);
            const std::size_t end = slice_end(dim, shards, s);
            const auto hi = std::lower_bound(
                lo, touched.end(), static_cast<std::uint32_t>(end));
            slice_index.clear();
            slice_value.clear();
            for (auto it = lo; it != hi; ++it) {
                slice_index.push_back(
                    static_cast<std::uint32_t>(*it - begin));
                slice_value.push_back(acc[*it]);
            }
            const std::size_t nnz = slice_index.size();
            slice_residual.assign(nnz, 0.0f);
            const GradientView view =
                GradientView::sparse_view<std::uint32_t>(
                    slice_value.data(), slice_index.data(), nnz,
                    static_cast<std::uint32_t>(end - begin),
                    simd::sparse::IndexMode::kAbsolute);
            wires[s] = encode_sparse_gradient(
                view, config.codec,
                feedback ? slice_residual.data() : nullptr, &codec_rng);
            stats.encoded_nnz += nnz;
            if (feedback)
                for (std::size_t j = 0; j < nnz; ++j)
                    if (slice_residual[j] != 0.0f) {
                        next_residual_index.push_back(
                            static_cast<std::uint32_t>(begin) +
                            slice_index[j]);
                        next_residual_value.push_back(slice_residual[j]);
                    }
            lo = hi;
        }
        residual_index.swap(next_residual_index);
        residual_value.swap(next_residual_value);

        // Reset the scratch accumulator in O(touched).
        for (const std::uint32_t k : touched) {
            acc[k] = 0.0f;
            in_support[k] = 0;
        }
        touched.clear();
    };
    return run_rounds(config, worker, transport, rounds_done, model,
                      minibatch, encode);
}

// ------------------------------------------------------- node roles

ShardMetrics
run_shard_node(const ClusterConfig& config, std::size_t dim,
               const ShardNodeOptions& options)
{
    if (options.index >= config.shards) fatal("shard index out of range");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = {options.index};
    tc.listen = true;
    tc.bind_address = options.bind_address;
    tc.listen_port = options.port;
    tc.adopt_listen_fd = options.adopt_listen_fd;
    // Sender-side fault injection (see node.h): the shard's own sends
    // are reliable so teardown acks always make it out; the reorder
    // window still shuffles its inbound mailbox.
    tc.faults = config.faults;
    tc.faults.drop_prob = 0.0;
    tc.faults.jitter_us = 0;
    SocketTransport transport(tc);
    if (options.bound_port != nullptr) *options.bound_port = transport.port();

    ShardConfig shard_cfg;
    shard_cfg.workers = config.workers;
    shard_cfg.tau = config.tau;
    shard_cfg.step_size = config.step_size;
    shard_cfg.batch = config.batch;
    shard_cfg.impl = config.impl;
    ServerShard shard(options.index,
                      slice_begin(dim, config.shards, options.index),
                      slice_end(dim, config.shards, options.index),
                      shard_cfg, transport);
    shard.run(); // until kShutdown (or transport close)
    transport.close();
    return shard.metrics();
}

namespace {

/// Shared socket bring-up of a worker node: dial the shards, run the
/// given round loop, close the fabric.
template <typename Problem>
WorkerStats
run_worker_node_impl(const ClusterConfig& config, const Problem& problem,
                     std::size_t worker,
                     const std::vector<net::Address>& shard_addresses)
{
    if (worker >= config.workers) fatal("worker index out of range");
    if (shard_addresses.size() != config.shards)
        fatal("need one shard address per shard");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = {worker_endpoint_of(config, worker)};
    for (std::size_t s = 0; s < config.shards; ++s)
        tc.peers[s] = shard_addresses[s];
    tc.faults = config.faults;
    SocketTransport transport(tc);
    const WorkerStats stats =
        run_worker_rounds(config, problem, worker, transport, nullptr);
    transport.close();
    return stats;
}

} // namespace

WorkerStats
run_worker_node(const ClusterConfig& config,
                const dataset::DenseProblem& problem, std::size_t worker,
                const std::vector<net::Address>& shard_addresses)
{
    return run_worker_node_impl(config, problem, worker, shard_addresses);
}

WorkerStats
run_worker_node(const ClusterConfig& config,
                const dataset::SparseProblem& problem, std::size_t worker,
                const std::vector<net::Address>& shard_addresses)
{
    return run_worker_node_impl(config, problem, worker, shard_addresses);
}

namespace {

SocketTransportConfig
control_transport_config(const ClusterConfig& config,
                         const std::vector<net::Address>& shard_addresses)
{
    if (shard_addresses.size() != config.shards)
        fatal("need one shard address per shard");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = {control_endpoint_of(config)};
    for (std::size_t s = 0; s < config.shards; ++s)
        tc.peers[s] = shard_addresses[s];
    tc.faults = config.faults;
    return tc;
}

} // namespace

ControlClient::ControlClient(const ClusterConfig& config,
                             const std::vector<net::Address>& shard_addresses)
    : config_(config),
      transport_(control_transport_config(config, shard_addresses)),
      rpc_(transport_, control_endpoint_of(config))
{}

std::vector<float>
ControlClient::snapshot(std::size_t dim)
{
    std::vector<float> model(dim);
    pull_model(rpc_, config_.shards, 0, model);
    return model;
}

std::vector<ShardMetrics>
ControlClient::stats()
{
    Message request;
    request.kind = Message::Kind::kStats;
    std::vector<ShardMetrics> all;
    for (const Message& reply : call_shards(rpc_, config_.shards, request))
        all.push_back(shard_metrics_from_stats(reply.stats));
    return all;
}

void
ControlClient::shutdown()
{
    Message request;
    request.kind = Message::Kind::kShutdown;
    call_shards(rpc_, config_.shards, request);
}

// --------------------------------------------------------- assembly

void
evaluate_model(const dataset::DenseProblem& problem, core::Loss loss,
               const std::vector<float>& model, double* out_loss,
               double* out_accuracy)
{
    double total = 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < problem.examples; ++i) {
        const float z = simd::DenseOps<float, float>::dot(
            problem.row(i), model.data(), problem.dim, 1.0f, 1.0f);
        total += core::loss_value(loss, z, problem.y[i]);
        if (core::loss_correct(loss, z, problem.y[i])) ++correct;
    }
    *out_loss = total / static_cast<double>(problem.examples);
    *out_accuracy =
        static_cast<double>(correct) / static_cast<double>(problem.examples);
}

void
evaluate_model(const dataset::SparseProblem& problem, core::Loss loss,
               const std::vector<float>& model, double* out_loss,
               double* out_accuracy)
{
    double total = 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < problem.examples(); ++i) {
        const dataset::SparseRow& x = problem.rows[i];
        const float z = simd::SparseOps<std::uint32_t>::dot(
            x.value.data(), x.index.data(), x.value.size(), model.data(),
            1.0f, simd::sparse::IndexMode::kAbsolute);
        total += core::loss_value(loss, z, problem.y[i]);
        if (core::loss_correct(loss, z, problem.y[i])) ++correct;
    }
    *out_loss = total / static_cast<double>(problem.examples());
    *out_accuracy = static_cast<double>(correct) /
                    static_cast<double>(problem.examples());
}

core::SavedModel
make_cluster_checkpoint(const ClusterConfig& config,
                        std::vector<float> weights, bool sparse)
{
    core::SavedModel model;
    model.signature = sparse ? dmgc::Signature::sparse_hogwild()
                             : dmgc::Signature::dense_hogwild();
    model.signature.communication = dmgc::Communication::kAsynchronous;
    model.signature.comm_precision = config.codec.kind == CodecKind::kDense
        ? dmgc::Precision::full()
        : dmgc::Precision::fixed(config.codec.bits);
    model.loss = config.loss;
    model.weights = std::move(weights);
    return model;
}

double
fixed_bytes_per_round(const ClusterConfig& config, std::size_t dim)
{
    if (config.codec.kind == CodecKind::kQsgd) return 0.0;
    double total = 0.0;
    for (std::size_t s = 0; s < config.shards; ++s)
        total += static_cast<double>(
            kWireHeaderBytes +
            payload_bytes(slice_end(dim, config.shards, s) -
                              slice_begin(dim, config.shards, s),
                          config.codec.bits));
    return total;
}

namespace {

bool
write_all_fd(int fd, const void* data, std::size_t n)
{
    const char* bytes = static_cast<const char*>(data);
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::write(fd, bytes + off, n - off);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) return false;
        off += static_cast<std::size_t>(w);
    }
    return true;
}

bool
read_all_fd(int fd, void* data, std::size_t n)
{
    char* bytes = static_cast<char*>(data);
    std::size_t off = 0;
    while (off < n) {
        const ssize_t r = ::read(fd, bytes + off, n - off);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) return false;
        off += static_cast<std::size_t>(r);
    }
    return true;
}

///// Child-side observability bring-up for a spawned node: tags the
/// tracer with the child's role and, when the fleet view is on, serves
/// this process's registry on an ephemeral /metrics port — reported to
/// the parent through `port_fd` before any training traffic, so the
/// parent can assemble its target list without racing the run.
std::unique_ptr<obs::HttpExporter>
start_child_obs(const ClusterConfig& config, const std::string& role,
                int port_fd)
{
    if (!config.trace_dir.empty()) {
        obs::Tracer::global().set_enabled(true);
        obs::Tracer::global().set_process(role);
    }
    std::unique_ptr<obs::HttpExporter> exporter;
    if (config.fleet_port >= 0) {
        obs::HttpExporterConfig hc;
        hc.port = 0;
        hc.bind_address = "127.0.0.1";
        exporter = std::make_unique<obs::HttpExporter>(hc);
        // Port 0 means "could not bind" to the parent, which then just
        // leaves this node out of the fleet view.
        const std::uint32_t port =
            exporter->start() ? exporter->port() : 0;
        if (!write_all_fd(port_fd, &port, sizeof port))
            warn("cluster: child could not report its /metrics port");
    }
    return exporter;
}

/// Child-side observability teardown: stop the scrape endpoint and
/// flush this process's trace where buckwild_tracemerge expects it.
void
finish_child_obs(const ClusterConfig& config, const std::string& role,
                 std::unique_ptr<obs::HttpExporter> exporter)
{
    if (exporter != nullptr) exporter->stop();
    if (!config.trace_dir.empty())
        obs::export_trace_file(config.trace_dir + "/" + role +
                               ".trace.json");
}

void
reap_children(const std::vector<pid_t>& pids, const char* role)
{
    for (const pid_t pid : pids) {
        int status = 0;
        pid_t reaped;
        do {
            reaped = ::waitpid(pid, &status, 0);
        } while (reaped < 0 && errno == EINTR);
        if (reaped != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            fatal(std::string(role) + " process did not exit cleanly");
    }
}

using detail::example_count;
using detail::is_sparse_workload;
using detail::numbers_per_example;

template <typename Problem>
ClusterResult
train_cluster_multiprocess_impl(const Problem& problem,
                                const ClusterConfig& config)
{
    if (config.rounds == 0) fatal("rounds must be >= 1");
    if (example_count(problem) < config.workers)
        fatal("need at least one example per worker");
    if (config.shards == 0 || config.shards > problem.dim)
        fatal("bad shard count for this model dimension");
    validate_codec(config.codec);

    const std::size_t shards = config.shards;
    const std::size_t workers = config.workers;

    // Bind every shard's listener in the parent, before forking: the
    // children inherit already-bound sockets, so the advertised ports
    // can never race the shard startup.
    std::vector<net::Fd> listeners;
    std::vector<net::Address> addresses;
    for (std::size_t s = 0; s < shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        net::Fd fd = net::listen_tcp("127.0.0.1", 0, 64, &port, &error);
        if (!fd.valid()) fatal(error);
        listeners.push_back(std::move(fd));
        addresses.push_back({"127.0.0.1", port});
    }

    Stopwatch wall;

    std::vector<pid_t> shard_pids;
    std::vector<int> shard_port_pipes;
    for (std::size_t s = 0; s < shards; ++s) {
        int port_fds[2] = {-1, -1};
        if (config.fleet_port >= 0 && ::pipe(port_fds) != 0)
            fatal("pipe failed for shard metrics port");
        const pid_t pid = ::fork();
        if (pid < 0) fatal("fork failed for shard process");
        if (pid == 0) {
            if (port_fds[0] >= 0) ::close(port_fds[0]);
            for (std::size_t t = 0; t < shards; ++t)
                if (t != s) listeners[t].reset();
            int code = 0;
            try {
                const std::string role = "shard" + std::to_string(s);
                std::unique_ptr<obs::HttpExporter> exporter =
                    start_child_obs(config, role, port_fds[1]);
                if (port_fds[1] >= 0) ::close(port_fds[1]);
                ShardNodeOptions options;
                options.index = s;
                options.adopt_listen_fd = listeners[s].release();
                run_shard_node(config, problem.dim, options);
                finish_child_obs(config, role, std::move(exporter));
            } catch (...) {
                code = 1;
            }
            ::_exit(code);
        }
        if (port_fds[1] >= 0) ::close(port_fds[1]);
        if (port_fds[0] >= 0) shard_port_pipes.push_back(port_fds[0]);
        shard_pids.push_back(pid);
    }
    // The children own the listeners now.
    for (auto& listener : listeners) listener.reset();

    // Each shard reports its ephemeral /metrics port as its first act;
    // a port of 0 (bind failure, dead child) drops it from the fleet.
    std::vector<std::uint32_t> shard_ports(shards, 0);
    for (std::size_t s = 0; s < shard_port_pipes.size(); ++s) {
        if (!read_all_fd(shard_port_pipes[s], &shard_ports[s],
                         sizeof(shard_ports[s])))
            shard_ports[s] = 0;
        ::close(shard_port_pipes[s]);
    }

    std::vector<pid_t> worker_pids;
    std::vector<int> stat_pipes;
    std::vector<int> ack_pipes;
    for (std::size_t w = 0; w < workers; ++w) {
        int fds[2];
        if (::pipe(fds) != 0) fatal("pipe failed for worker stats");
        // When the fleet view is on, a reverse (parent -> worker) ack
        // pipe holds the worker's /metrics endpoint open until the
        // parent has taken its final scrape — otherwise the worker
        // would exit (and its exporter with it) the instant its stats
        // land, and the merged view would race the teardown.
        int ack_fds[2] = {-1, -1};
        if (config.fleet_port >= 0 && ::pipe(ack_fds) != 0)
            fatal("pipe failed for worker scrape ack");
        const pid_t pid = ::fork();
        if (pid < 0) fatal("fork failed for worker process");
        if (pid == 0) {
            ::close(fds[0]);
            if (ack_fds[1] >= 0) ::close(ack_fds[1]);
            int code = 0;
            try {
                // The stats pipe doubles as the port pipe: the
                // /metrics port goes down it first, the stats struct
                // follows as the worker's last act.
                const std::string role = "worker" + std::to_string(w);
                std::unique_ptr<obs::HttpExporter> exporter =
                    start_child_obs(config, role, fds[1]);
                const WorkerStats stats =
                    run_worker_node(config, problem, w, addresses);
                if (!write_all_fd(fds[1], &stats, sizeof(stats)))
                    code = 1;
                if (ack_fds[0] >= 0) {
                    char ack = 0;
                    read_all_fd(ack_fds[0], &ack, 1); // parent scraped
                }
                finish_child_obs(config, role, std::move(exporter));
            } catch (...) {
                code = 1;
            }
            ::close(fds[1]);
            if (ack_fds[0] >= 0) ::close(ack_fds[0]);
            ::_exit(code);
        }
        ::close(fds[1]);
        if (ack_fds[0] >= 0) ::close(ack_fds[0]);
        worker_pids.push_back(pid);
        stat_pipes.push_back(fds[0]);
        ack_pipes.push_back(ack_fds[1]);
    }

    // Collect the workers' /metrics ports (written before round one).
    std::vector<std::uint32_t> worker_ports(workers, 0);
    if (config.fleet_port >= 0)
        for (std::size_t w = 0; w < workers; ++w)
            if (!read_all_fd(stat_pipes[w], &worker_ports[w],
                             sizeof(worker_ports[w])))
                worker_ports[w] = 0;

    // All forks are done — threads are safe again. The parent becomes
    // the control node proper: it tags its own trace, and when the
    // fleet view is on it re-exposes the merged, node-labeled scrape
    // of every child plus its own registry.
    if (!config.trace_dir.empty()) {
        obs::Tracer::global().set_enabled(true);
        obs::Tracer::global().set_process("control");
    }
    std::unique_ptr<obs::FleetAggregator> fleet;
    std::unique_ptr<obs::HttpExporter> fleet_exporter;
    int fleet_port_bound = -1;
    if (config.fleet_port >= 0) {
        obs::FleetConfig fc;
        fc.local_node = "control";
        for (std::size_t s = 0; s < shards; ++s)
            if (shard_ports[s] != 0)
                fc.targets.push_back(
                    {"shard" + std::to_string(s),
                     {"127.0.0.1",
                      static_cast<std::uint16_t>(shard_ports[s])}});
        for (std::size_t w = 0; w < workers; ++w)
            if (worker_ports[w] != 0)
                fc.targets.push_back(
                    {"worker" + std::to_string(w),
                     {"127.0.0.1",
                      static_cast<std::uint16_t>(worker_ports[w])}});
        fleet = std::make_unique<obs::FleetAggregator>(std::move(fc));
        obs::HttpExporterConfig hc;
        hc.port = static_cast<std::uint16_t>(config.fleet_port);
        hc.bind_address = "127.0.0.1";
        hc.metrics_body = [aggregator = fleet.get()] {
            return aggregator->merged_body();
        };
        fleet_exporter = std::make_unique<obs::HttpExporter>(hc);
        if (fleet_exporter->start())
            fleet_port_bound = fleet_exporter->port();
    }

    // Workers report their stats through the pipe as their last act; a
    // short read means the worker died mid-run.
    std::vector<WorkerStats> worker_stats(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        auto* bytes = reinterpret_cast<char*>(&worker_stats[w]);
        std::size_t off = 0;
        while (off < sizeof(WorkerStats)) {
            const ssize_t n = ::read(stat_pipes[w], bytes + off,
                                     sizeof(WorkerStats) - off);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;
            off += static_cast<std::size_t>(n);
        }
        ::close(stat_pipes[w]);
        if (off != sizeof(WorkerStats)) {
            if (ack_pipes[w] >= 0) ::close(ack_pipes[w]);
            fatal("worker process " + std::to_string(w) +
                  " died before reporting stats");
        }
        if (ack_pipes[w] >= 0) {
            // The worker is done but parked on the ack pipe: scrape its
            // final numbers into the last-good cache, then release it.
            if (fleet != nullptr) fleet->merged_body();
            const char ack = 1;
            write_all_fd(ack_pipes[w], &ack, 1);
            ::close(ack_pipes[w]);
        }
    }
    reap_children(worker_pids, "worker");

    // The parent is the control endpoint: final snapshot, shard
    // counters, then shutdown — and only then are the shards reaped.
    ClusterResult result;
    result.comm = config.codec.name();
    ControlClient control(config, addresses);
    std::vector<float> model = control.snapshot(problem.dim);
    result.metrics.shards = control.stats();
    // Final fleet snapshot while the shards still answer; the workers
    // (already gone) are served from their last-good scrapes.
    if (fleet != nullptr) result.fleet_metrics = fleet->merged_body();
    control.shutdown();
    reap_children(shard_pids, "shard");
    result.wall_seconds = wall.seconds();
    result.fleet_port = fleet_port_bound;
    if (fleet_exporter != nullptr) fleet_exporter->stop();
    if (!config.trace_dir.empty()) {
        obs::export_trace_file(config.trace_dir + "/control.trace.json");
        if (!result.fleet_metrics.empty()) {
            std::ofstream out(config.trace_dir + "/fleet.prom");
            out << result.fleet_metrics;
        }
    }

    result.checkpoint = make_cluster_checkpoint(config, std::move(model),
                                                is_sparse_workload(problem));
    evaluate_model(problem, config.loss, result.checkpoint.weights,
                   &result.final_loss, &result.accuracy);

    std::uint64_t encoded_total = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        result.rounds += worker_stats[w].rounds;
        result.metrics.worker_seconds += worker_stats[w].seconds;
        result.metrics.rpc_retries += worker_stats[w].retries;
        encoded_total += worker_stats[w].encoded_bytes;
    }
    result.metrics.rpc_retries += control.retries();
    result.metrics.numbers = static_cast<double>(result.rounds) *
                             static_cast<double>(config.batch) *
                             numbers_per_example(problem);
    // Sparse pushes are nnz-dependent at every tier, so their traffic is
    // always measured; dense fixed-size codecs stay statically computed.
    const bool measured = config.codec.kind == CodecKind::kQsgd ||
                          is_sparse_workload(problem);
    result.bytes_per_round =
        measured ? (result.rounds > 0
                        ? static_cast<double>(encoded_total) /
                              static_cast<double>(result.rounds)
                        : 0.0)
                 : fixed_bytes_per_round(config, problem.dim);
    return result;
}

} // namespace

ClusterResult
train_cluster_multiprocess(const dataset::DenseProblem& problem,
                           const ClusterConfig& config)
{
    return train_cluster_multiprocess_impl(problem, config);
}

ClusterResult
train_cluster_multiprocess(const dataset::SparseProblem& problem,
                           const ClusterConfig& config)
{
    return train_cluster_multiprocess_impl(problem, config);
}

} // namespace buckwild::ps
