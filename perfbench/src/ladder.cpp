/**
 * @file
 * The layer ladder of the traced run.
 *
 * Training:  kernel GNPS -> engine epoch -> codec ns/coord -> wire ns/B
 *            -> RPC round trip -> shard counters.
 * Serving:   kernel -> engine score -> queue -> gate hop.
 *
 * Each rung replays the workload's own shape (dimension, density,
 * kernel signature, codec and slice) through one layer's public
 * functions and times those calls from here; rungs whose numbers the
 * workload's own run already produced (cluster counters, gate phases)
 * are not re-run. Every rung is wrapped in one "bench" span; calls
 * inside a rung are not, so spans never weigh on a per-call timing.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/trainer.h"
#include "dmgc/perf_model.h"
#include "gate/wire.h"
#include "lowp/round.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "ps/node.h"
#include "ps/shard.h"
#include "ps/socket_transport.h"
#include "ps/wire.h"
#include "serve/engine.h"
#include "simd/ops.h"
#include "simd/sparse_ops.h"
#include "workloads.h"

namespace perfbench {

using namespace buckwild;

namespace {

/// Seconds each micro rung measures for.
constexpr double kRungSeconds = 0.2;
/// Sparse rungs on dense workloads use this density (the sparse
/// workloads' own).
constexpr double kDefaultDensity = 0.01;

std::vector<float>
uniform(std::size_t n, std::mt19937_64& rng, float lo = -1.0f,
        float hi = 1.0f)
{
    std::uniform_real_distribution<float> d(lo, hi);
    std::vector<float> v(n);
    for (float& x : v) x = d(rng);
    return v;
}

std::size_t
sparse_nnz(const Shape& shape)
{
    const double density = shape.density < 1.0 ? shape.density
                                                : kDefaultDensity;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(density * static_cast<double>(shape.dim)));
}

/// Sorted distinct coordinates in [0, dim).
std::vector<std::uint32_t>
support(std::size_t dim, std::size_t nnz, std::mt19937_64& rng)
{
    std::vector<std::uint32_t> all(dim);
    for (std::size_t k = 0; k < dim; ++k) all[k] = static_cast<std::uint32_t>(k);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(std::min(nnz, dim));
    std::sort(all.begin(), all.end());
    return all;
}

template <typename T>
std::vector<T>
as_rep(const std::vector<float>& v)
{
    std::vector<T> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = std::is_floating_point_v<T>
            ? static_cast<T>(v[i])
            : static_cast<T>(std::lround(v[i] * 100.0f));
    return out;
}

template <typename D, typename M>
void
dense_kernels(const Shape& shape, std::mt19937_64& rng, LayerValues& out)
{
    const std::size_t n = shape.dim;
    const std::vector<D> x = as_rep<D>(uniform(n, rng));
    std::vector<M> w = as_rep<M>(uniform(n, rng));
    const float q = std::is_floating_point_v<D> ? 1.0f : 1.0f / 128.0f;
    const float qm = std::is_floating_point_v<M> ? 1.0f : 1.0f / 128.0f;
    volatile float sink = 0.0f;
    const double dot = median_seconds_per_call(
        [&] { sink = sink + simd::DenseOps<D, M>::dot(x.data(), w.data(), n, q, qm); },
        kRungSeconds);
    const simd::DitherBlock dither = simd::biased_unit();
    // Alternating signs keep a low-precision model from drifting into
    // saturation over many calls.
    float c = 1e-3f;
    const double axpy = median_seconds_per_call(
        [&] {
            simd::DenseOps<D, M>::axpy(w.data(), x.data(), n, c, q, qm,
                                       dither);
            c = -c;
        },
        kRungSeconds);
    out["simd.dense_dot_gnps"] = static_cast<double>(n) / dot / 1e9;
    out["simd.dense_axpy_gnps"] = static_cast<double>(n) / axpy / 1e9;
}

void
kernel_rungs(const Shape& shape, std::mt19937_64& rng, LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.simd");
    const dmgc::Signature& sig = shape.signature;
    const bool d8 = !sig.dataset.is_float && sig.dataset.bits == 8;
    const bool m8 = !sig.model.is_float && sig.model.bits == 8;
    if (d8 && m8)
        dense_kernels<std::int8_t, std::int8_t>(shape, rng, out);
    else if (m8)
        dense_kernels<float, std::int8_t>(shape, rng, out);
    else
        dense_kernels<float, float>(shape, rng, out);

    const std::size_t nnz = sparse_nnz(shape);
    const std::vector<std::uint32_t> idx = support(shape.dim, nnz, rng);
    const std::vector<float> val = uniform(idx.size(), rng);
    std::vector<float> w = uniform(shape.dim, rng);
    const auto mode = simd::sparse::IndexMode::kAbsolute;
    volatile float sink = 0.0f;
    const double dot = median_seconds_per_call(
        [&] {
            sink = sink + simd::SparseOps<std::uint32_t>::dot(
                              val.data(), idx.data(), idx.size(), w.data(),
                              1.0f, mode);
        },
        kRungSeconds);
    float c = 1e-3f;
    const double axpy = median_seconds_per_call(
        [&] {
            simd::SparseOps<std::uint32_t>::axpy(w.data(), val.data(),
                                                 idx.data(), idx.size(), c,
                                                 mode);
            c = -c;
        },
        kRungSeconds);
    out["simd.sparse_dot_gnps"] = static_cast<double>(idx.size()) / dot / 1e9;
    out["simd.sparse_axpy_gnps"] =
        static_cast<double>(idx.size()) / axpy / 1e9;
}

void
lowp_rung(const Shape& shape, std::mt19937_64& rng, LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.lowp");
    const std::vector<float> in = uniform(shape.dim, rng);
    std::vector<std::int8_t> q(shape.dim);
    const lowp::GridSpec grid = lowp::GridSpec::symmetric(8, 1.0);
    std::uint32_t words[8];
    for (std::uint32_t& word : words) word = static_cast<std::uint32_t>(rng());
    const double s = median_seconds_per_call(
        [&] { lowp::quantize_shared(in.data(), q.data(), in.size(), grid, words); },
        kRungSeconds);
    out["lowp.round_ns_per_number"] = s / static_cast<double>(shape.dim) * 1e9;
}

/// One-epoch fits of the workload's own problem at two threads.
void
engine_rung(const Shape& shape, LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.core");
    core::TrainerConfig cfg;
    cfg.threads = 2;
    cfg.epochs = 1;
    cfg.seed = shape.seed;
    cfg.record_loss_trace = false;
    std::vector<double> epoch, gnps;
    const auto deadline = Clock::now() + std::chrono::milliseconds(500);
    cfg.signature = shape.sparse != nullptr
                        ? dmgc::Signature::sparse_hogwild()
                        : dmgc::Signature::dense_fixed(8, 8);
    while (epoch.size() < 3 || Clock::now() < deadline) {
        core::Trainer trainer(cfg);
        const core::TrainingMetrics m = shape.sparse != nullptr
                                            ? trainer.fit(*shape.sparse)
                                            : trainer.fit(*shape.dense);
        epoch.push_back(m.train_seconds);
        gnps.push_back(m.gnps());
    }
    out["core.epoch_ms"] = median_of(epoch) * 1e3;
    const dmgc::PerfModel model = dmgc::PerfModel::paper_model();
    out["core.gnps_over_model"] =
        median_of(gnps) / model.predict_gnps(cfg.signature, cfg.threads,
                                             shape.dim);
}

/// Codec and wire rungs on one push of the workload's shape: a dense
/// shard slice, or the sparse run one push carries. Checks
/// decode(encode(g)) + r == g on the rung's inputs.
void
codec_rungs(const Shape& shape, std::mt19937_64& rng, Report& report,
            LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.ps.quantize");
    const bool sparse = shape.density < 1.0;
    // A sparse push carries the batch's touched coordinates in one
    // shard's range.
    const std::size_t slice = shape.dim / shape.shards;
    const std::size_t n = sparse
        ? std::min(slice, sparse_nnz(shape) * shape.batch / shape.shards)
        : slice;
    std::normal_distribution<float> normal(0.0f, 1e-2f);
    std::vector<float> g(n);
    for (float& v : g) v = normal(rng);
    const std::vector<std::uint32_t> idx = support(slice, n, rng);
    const ps::GradientView view =
        sparse ? ps::GradientView::sparse_view(g.data(), idx.data(), n,
                                               static_cast<std::uint32_t>(slice),
                                               simd::sparse::IndexMode::kAbsolute)
               : ps::GradientView::dense(g.data(), n);
    std::vector<float> residual(n);
    rng::Xorshift128Plus dither(shape.seed);
    const auto encode = [&] {
        return sparse ? ps::encode_sparse_gradient(view, shape.codec,
                                                   residual.data(), &dither)
                      : ps::encode_gradient(g.data(), n, shape.codec,
                                            residual.data(), &dither);
    };
    const auto decode = [&](const ps::WireGradient& wire) {
        if (!sparse) return ps::decode_gradient(wire);
        const ps::SparseGradient s = ps::decode_sparse_gradient(wire);
        if (s.index != idx) return std::vector<float>{};
        return s.value;
    };

    // Round trip on this rung's input: the decoded values plus the
    // residual give back g, up to one rounding of the subtraction.
    const ps::WireGradient wire = encode();
    const std::vector<float> decoded = decode(wire);
    bool exact = decoded.size() == n;
    for (std::size_t k = 0; exact && k < n; ++k) {
        const float sum = decoded[k] + residual[k];
        exact = std::fabs(sum - g[k]) <=
                std::numeric_limits<float>::epsilon() *
                    std::max(std::fabs(g[k]), std::fabs(decoded[k]));
    }
    report.check(exact, "codec " + shape.codec.name() +
                            ": decode(encode(g)) + r != g");

    volatile std::size_t sink = 0;
    const double enc = median_seconds_per_call(
        [&] { sink = sink + encode().payload.size(); }, kRungSeconds);
    const double dec = median_seconds_per_call(
        [&] { sink = sink + decode(wire).size(); }, kRungSeconds);
    out["ps.quantize.encode_ns_per_coord"] = enc / static_cast<double>(n) * 1e9;
    out["ps.quantize.decode_ns_per_coord"] = dec / static_cast<double>(n) * 1e9;
    out["ps.quantize.wire_bytes_per_coord"] =
        static_cast<double>(wire.wire_bytes()) / static_cast<double>(n);

    obs::ScopedSpan wire_span("bench", "ladder.ps.wire");
    ps::Message push;
    push.kind = ps::Message::Kind::kPush;
    push.worker = 1;
    push.clock = 1;
    push.gradient = wire;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(push);
    ps::Message parsed;
    report.check(ps::deserialize_message(bytes.data(), bytes.size(), parsed) &&
                     parsed.gradient.payload == wire.payload &&
                     parsed.gradient.index_payload == wire.index_payload,
                 "ps/wire: push does not survive a round trip");
    const double ser = median_seconds_per_call(
        [&] { sink = sink + ps::serialize_message(push).size(); },
        kRungSeconds);
    const double des = median_seconds_per_call(
        [&] {
            sink = sink + ps::deserialize_message(bytes.data(), bytes.size(),
                                                  parsed);
        },
        kRungSeconds);
    out["ps.wire.serialize_ns_per_byte"] =
        ser / static_cast<double>(bytes.size()) * 1e9;
    out["ps.wire.deserialize_ns_per_byte"] =
        des / static_cast<double>(bytes.size()) * 1e9;
}

/// Median idle RpcClient::call round trip: one pull of the workload's
/// shard slice.
double
pull_rtt(ps::RpcClient& rpc, std::size_t shard)
{
    ps::Message pull;
    pull.kind = ps::Message::Kind::kPull;
    pull.worker = 0;
    return median_seconds_per_call([&] { rpc.call(shard, pull); },
                                   kRungSeconds);
}

void
rtt_rungs(const Shape& shape, LayerValues& out)
{
    const std::size_t slice = shape.dim / shape.shards;
    std::string error;
    {
        obs::ScopedSpan span("bench", "ladder.ps.transport");
        ps::InProcTransport transport(2);
        ps::ServerShard shard(0, 0, slice, ps::ShardConfig{}, transport);
        JoinedThread server([&] { shard.run(); });
        try {
            ps::RpcClient rpc(transport, 1);
            out["ps.transport.rtt_inproc_us"] = pull_rtt(rpc, 0) * 1e6;
        } catch (const std::exception& e) {
            error = e.what();
        }
        transport.close(); // ends run(); the thread joins at scope exit
    }

    obs::ScopedSpan span("bench", "ladder.net");
    ps::ClusterConfig cfg;
    cfg.workers = 1;
    cfg.shards = 1;
    std::uint16_t port = 0;
    std::string listen_error;
    net::Fd listener =
        net::listen_tcp("127.0.0.1", 0, 16, &port, &listen_error);
    if (!listener.valid()) throw std::runtime_error("listen: " + listen_error);
    const std::vector<net::Address> addresses = {{"127.0.0.1", port}};
    {
        JoinedThread server([&] {
            ps::ShardNodeOptions options;
            options.adopt_listen_fd = listener.release();
            ps::run_shard_node(cfg, slice, options);
        });
        try {
            ps::SocketTransportConfig tc;
            tc.endpoints = ps::cluster_endpoints(cfg);
            tc.local = {ps::worker_endpoint_of(cfg, 0)};
            tc.peers = {{0, addresses[0]}};
            ps::SocketTransport transport(tc);
            ps::RpcClient rpc(transport, ps::worker_endpoint_of(cfg, 0));
            out["net.rtt_tcp_us"] = pull_rtt(rpc, 0) * 1e6;
            transport.close();
        } catch (const std::exception& e) {
            if (error.empty()) error = e.what();
        }
        // The shard node returns only on a shutdown.
        try {
            ps::ControlClient(cfg, addresses).shutdown();
        } catch (const std::exception& e) {
            if (error.empty()) error = e.what();
        }
    }
    if (!error.empty()) throw std::runtime_error("rtt rung: " + error);
}

/// A short in-process cluster at the workload's dimension, for the
/// shard and fabric counters of workloads that run no cluster.
void
cluster_rung(const Shape& shape, LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.ps.cluster");
    ps::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.shards = shape.shards;
    cfg.codec = shape.codec;
    cfg.rounds = 100;
    const ps::ClusterResult r = ps::train_cluster(*shape.dense, cfg);
    cluster_layer_values(r, r.wall_seconds, cfg.shards, out);
}

void
serve_rung(const Shape& shape, std::mt19937_64& rng, LayerValues& out)
{
    obs::ScopedSpan span("bench", "ladder.serve");
    core::SavedModel saved;
    saved.signature = dmgc::Signature::dense_fixed(8, 8);
    saved.weights = uniform(shape.dim, rng);
    const serve::ServingModel model(saved, serve::Precision::kInt8, 1);
    const serve::InferenceEngine engine;
    const std::vector<float> x = uniform(shape.dim, rng);
    std::vector<std::int8_t> q8;
    const float scale = gate::quantize_features_q8(x.data(), x.size(), q8);
    const std::vector<std::uint32_t> idx =
        support(shape.dim, sparse_nnz(shape), rng);
    const std::vector<float> val = uniform(idx.size(), rng);
    volatile float sink = 0.0f;
    out["serve.score_us.dense_f32"] =
        median_seconds_per_call(
            [&] { sink = sink + engine.score_dense(model, x.data(), x.size()).score; },
            kRungSeconds) *
        1e6;
    // As the gate scores a q8 payload: dequantize, then the dense path.
    std::vector<float> features(shape.dim);
    out["serve.score_us.q8"] =
        median_seconds_per_call(
            [&] {
                gate::dequantize_features_q8(q8.data(), q8.size(), scale,
                                             features.data());
                sink = sink + engine.score_dense(model, features.data(),
                                                 features.size())
                                  .score;
            },
            kRungSeconds) *
        1e6;
    out["serve.score_us.sparse"] =
        median_seconds_per_call(
            [&] {
                sink = sink + engine.score_sparse(model, idx.data(),
                                                  val.data(), idx.size())
                                  .score;
            },
            kRungSeconds) *
        1e6;
}

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>&
layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"simd.dense_dot_gnps", "GNPS"},
        {"simd.dense_axpy_gnps", "GNPS"},
        {"simd.sparse_dot_gnps", "GNPS"},
        {"simd.sparse_axpy_gnps", "GNPS"},
        {"lowp.round_ns_per_number", "ns"},
        {"core.epoch_ms", "ms"},
        {"core.gnps_over_model", "ratio"},
        {"dataset.generate_s", "s"},
        {"ps.quantize.encode_ns_per_coord", "ns"},
        {"ps.quantize.decode_ns_per_coord", "ns"},
        {"ps.quantize.wire_bytes_per_coord", "B"},
        {"ps.wire.serialize_ns_per_byte", "ns"},
        {"ps.wire.deserialize_ns_per_byte", "ns"},
        {"ps.transport.rtt_inproc_us", "us"},
        {"net.rtt_tcp_us", "us"},
        {"ps.transport.retransmits_per_kround", "count"},
        {"ps.shard.dup_ratio", "ratio"},
        {"ps.shard.apply_share", "ratio"},
        {"ps.shard.gated_ratio", "ratio"},
        {"ps.shard.staleness_p99", "rounds"},
        {"ps.push_bytes_per_round", "B"},
        {"ps.rounds_per_s", "1/s"},
        {"serve.score_us.dense_f32", "us"},
        {"serve.score_us.q8", "us"},
        {"serve.score_us.sparse", "us"},
        {"gate.queue_us", "us"},
        {"gate.score_us", "us"},
        {"gate.shed_ratio", "ratio"},
        {"gate.deadline_missed_ratio", "ratio"},
        {"gate.generator_late_ms", "ms"},
        {"gate.steady.sent", "count"},
        {"gate.steady.ok", "count"},
        {"gate.steady.shed", "count"},
        {"gate.steady.failed", "count"},
        {"gate.overload.sent", "count"},
        {"gate.overload.ok", "count"},
        {"gate.overload.shed", "count"},
        {"gate.overload.failed", "count"},
        {"obs.trace_overhead_pct", "%"},
    };
    return metrics;
}

} // namespace

void
run_ladder(const Shape& shape, const Options& options, LayerValues values,
           Report& report)
{
    std::mt19937_64 rng(shape.seed ^ 0x1ADDE5);
    kernel_rungs(shape, rng, values);
    lowp_rung(shape, rng, values);
    if (!values.count("core.epoch_ms")) engine_rung(shape, values);
    codec_rungs(shape, rng, report, values);
    rtt_rungs(shape, values);
    if (!values.count("ps.shard.apply_share")) cluster_rung(shape, values);
    serve_rung(shape, rng, values);
    if (!values.count("gate.queue_us")) {
        obs::ScopedSpan span("bench", "ladder.gate");
        GateLoad load;
        load.dim = shape.dim;
        load.steady_rps = options.steady_rps;
        load.overload_rps = options.overload_rps;
        load.phase_seconds = options.tiny ? 0.2 : 1.0;
        load.seed = shape.seed;
        gate_layer_run(load, report, values);
    }
    for (const auto& [name, unit] : layer_metrics()) {
        const auto it = values.find(name);
        report.check(it != values.end(), "layer metric missing: " + name);
        if (it != values.end()) report.metric(name, it->second, unit);
    }
}

} // namespace perfbench
