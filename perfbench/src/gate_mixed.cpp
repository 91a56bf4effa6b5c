/**
 * @file
 * gate-mixed: the serving front door under open-loop load.
 *
 * An in-process GateServer with one scoring worker serves an Ms8 model
 * on loopback. One GateClient connection carries a Poisson arrival
 * schedule drawn from the seed: payloads mix dense f32, q8 and sparse
 * features over both lanes, each with its lane's deadline. Two phases
 * run at fixed absolute rates (BENCHMARK.json states them; they are
 * never probed per run): `steady` near half of the worker's capacity
 * and `overload` near twice it. gate ingress, admission, lanes and
 * serve scoring do the work, the sparse score path included; ps never
 * runs.
 *
 * Open-loop honesty: every request is timed from its scheduled send
 * time, so a stalled generator shows up as latency; how late the
 * generator ran is reported; a refused, failed or unanswered request
 * counts as a miss in the latency tail. Every OK reply's score must
 * equal the benchmark's own InferenceEngine score on the same payload.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "dmgc/perf_model.h"
#include "gate/gate.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace buckwild;

namespace {

constexpr std::uint32_t kDeadlineUs[gate::kLanes] = {25'000, 100'000};
constexpr std::size_t kPayloads = 1536;
constexpr double kSparseDensity = 0.01;
constexpr const char* kModel = "m";


std::size_t
gate_dim(const Options& options)
{
    return options.tiny ? 512 : 8192;
}

/// One prepared request and what the benchmark expects back.
struct Payload
{
    gate::ScoreRequest request; ///< request_id is set at send time
    float label = 0.0f;
    float expected_score = 0.0f; ///< own engine, same model snapshot
    double numbers = 0.0;        ///< feature numbers carried
};

/// One reply as the client's reader thread saw it.
struct Reply
{
    std::uint64_t id = 0;
    gate::Status status = gate::Status::kOk;
    float score = 0.0f;
    float margin = 0.0f;
    std::int64_t at_ns = 0;
};

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// Spins until `at`. A sleeping generator wakes late by the timer slack
/// plus the scheduler's wake-up delay, which would land in every
/// request's latency; the spin keeps the generator on one core instead.
void
wait_until(Clock::time_point at)
{
    while (Clock::now() < at) {
    }
}

/// A served model, its payloads, a running gate and one client
/// connection. Members are declared so that the client closes before
/// the server stops and the server stops before what it borrows.
struct GateRig
{
    dmgc::PerfModel perf = dmgc::PerfModel::paper_model();
    dataset::DenseProblem rows; ///< payload source and labels
    double generate_seconds = 0.0;
    gate::ModelRouter router;
    obs::MetricsRegistry registry;
    std::vector<Payload> payloads;
    std::unique_ptr<gate::GateServer> server;

    std::mutex replies_mutex;
    std::vector<Reply> replies; ///< guarded by replies_mutex
    std::unique_ptr<gate::GateClient> client;

    GateRig(std::size_t dim, std::uint64_t seed);
    GateRig(const GateRig&) = delete;
    GateRig& operator=(const GateRig&) = delete;
};

GateRig::GateRig(std::size_t dim, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    rows = dataset::generate_logistic_dense(dim, kPayloads, seed);
    generate_seconds = seconds_since(t0);
    core::SavedModel saved;
    saved.signature = dmgc::Signature::dense_fixed(8, 8);
    saved.loss = core::Loss::kLogistic;
    // The generating model: labels were drawn at margin
    // w_true . x * 8 / sqrt(dim) (dataset/problem.cpp).
    const float scale = 8.0f / std::sqrt(static_cast<float>(dim));
    for (const float w : rows.w_true) saved.weights.push_back(w * scale);
    router.publish(kModel, saved, serve::Precision::kInt8);
    const std::shared_ptr<const serve::ServingModel> model =
        router.find(kModel)->current();

    const serve::InferenceEngine engine;
    std::mt19937_64 rng(seed ^ 0x6A7E);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t nnz = std::max<std::size_t>(
        1, static_cast<std::size_t>(kSparseDensity * static_cast<double>(dim)));
    const std::string model_name = kModel;
    payloads.resize(kPayloads);
    for (std::size_t i = 0; i < kPayloads; ++i) {
        Payload& p = payloads[i];
        gate::ScoreRequest& r = p.request;
        r.model = model_name;
        r.tenant = model_name;
        // Exactly a third of each encoding, each half on either lane:
        // the mix, and so the capacity, does not vary with the seed.
        r.lane = (i / 3) % 2 ? gate::Lane::kBatch : gate::Lane::kInteractive;
        r.deadline_us = kDeadlineUs[static_cast<std::size_t>(r.lane)];
        const float* x = rows.row(i);
        serve::ScoreResult expected;
        switch (i % 3) {
        case 0:
            r.encoding = gate::FeatureEncoding::kDenseF32;
            r.dense.assign(x, x + dim);
            expected = engine.score_dense(*model, x, dim);
            p.label = rows.y[i];
            break;
        case 1: {
            r.encoding = gate::FeatureEncoding::kDenseQ8;
            r.scale = gate::quantize_features_q8(x, dim, r.q8);
            std::vector<float> features(dim);
            gate::dequantize_features_q8(r.q8.data(), dim, r.scale,
                                         features.data());
            expected = engine.score_dense(*model, features.data(), dim);
            p.label = rows.y[i];
            break;
        }
        default: {
            // A 1% support of the row, labelled from the served model
            // restricted to that support.
            r.encoding = gate::FeatureEncoding::kSparseF32;
            std::vector<std::uint32_t> all(dim);
            for (std::size_t k = 0; k < dim; ++k)
                all[k] = static_cast<std::uint32_t>(k);
            std::shuffle(all.begin(), all.end(), rng);
            r.index.assign(all.begin(), all.begin() + static_cast<long>(nnz));
            std::sort(r.index.begin(), r.index.end());
            double margin = 0.0;
            for (const std::uint32_t k : r.index) {
                r.dense.push_back(x[k]);
                margin += static_cast<double>(saved.weights[k]) * x[k];
            }
            p.label = unit(rng) < 1.0 / (1.0 + std::exp(-margin)) ? 1.0f
                                                                 : -1.0f;
            expected = engine.score_sparse(*model, r.index.data(),
                                           r.dense.data(), nnz);
            break;
        }
        }
        p.expected_score = expected.score;
        p.numbers = static_cast<double>(r.feature_count());
    }

    gate::GateConfig cfg;
    cfg.workers = 1; // capacity low and known: one scoring thread
    cfg.metrics_registry = &registry;
    server = std::make_unique<gate::GateServer>(router, perf, cfg);
    client = std::make_unique<gate::GateClient>(
        net::Address{"127.0.0.1", server->port()});
    if (!client->connected())
        throw std::runtime_error("gate client could not connect");
    client->set_handler([this](const gate::ScoreResponse& response) {
        Reply reply{response.request_id, response.status, response.score,
                    response.margin, now_ns()};
        obs::Tracer::global().instant("bench", "gate.client.reply");
        std::lock_guard<std::mutex> lock(replies_mutex);
        replies.push_back(reply);
    });
}

/// Counts and samples of one open-loop phase.
struct PhaseResult
{
    double seconds = 0.0;
    std::uint64_t sent = 0, ok = 0, shed = 0, failed = 0;
    std::uint64_t unsent = 0; ///< scheduled but not sent by the phase end
    std::uint64_t ok_in_deadline = 0;
    double goodput_numbers = 0.0;
    std::vector<double> latency; ///< from scheduled send; misses = phase length
    std::vector<double> late;    ///< generator lateness, seconds
    double loss_sum = 0.0;       ///< logistic loss over OK replies
    std::uint64_t deadline_missed = 0, admitted = 0; ///< server side
};

/**
 * Sends a Poisson schedule at `rps` for `seconds` over the rig's one
 * connection, waits for the stragglers, and checks every reply.
 */
PhaseResult
run_phase(GateRig& rig, double rps, double seconds, std::uint64_t seed,
          std::uint64_t id_base, Report& report)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rps);
    std::uniform_int_distribution<std::size_t> pick(0, rig.payloads.size() - 1);
    std::vector<double> due; ///< offsets from phase start, seconds
    std::vector<std::size_t> which;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        due.push_back(t);
        which.push_back(pick(rng));
    }

    PhaseResult out;
    out.seconds = seconds;
    const gate::GateStats before = rig.server->stats();
    {
        // Reserved up front: growing the vector under the lock would
        // stall the client's reader thread and show up as latency.
        std::lock_guard<std::mutex> lock(rig.replies_mutex);
        rig.replies.clear();
        rig.replies.reserve(due.size());
    }
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const std::int64_t start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count();
    // Past the phase's end the generator stops: a send blocked by TCP
    // backpressure must not stretch the phase. Requests it never got to
    // count as unsent.
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    const bool tracing = obs::Tracer::global().enabled();
    std::vector<std::int64_t> sent_ns;
    sent_ns.reserve(due.size());
    out.late.reserve(due.size());
    for (std::size_t k = 0; k < due.size() && Clock::now() < end; ++k) {
        const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(due[k]));
        wait_until(at);
        out.late.push_back(seconds_since(at));
        gate::ScoreRequest& request = rig.payloads[which[k]].request;
        request.request_id = id_base + k;
        sent_ns.push_back(now_ns());
        obs::ScopedSpan span("bench", "gate.client.send");
        if (!rig.client->send(request)) break;
        ++out.sent;
        if (tracing && out.sent % 1024 == 0) keep_spans();
    }
    out.unsent = due.size() - out.sent;
    // Stragglers: every admitted request is answered or dropped within
    // its deadline (100 ms at most); the rest of the grace is slack for
    // a stalled host. An answer later than this counts as a failure.
    const auto grace = Clock::now() + std::chrono::seconds(2);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(rig.replies_mutex);
            if (rig.replies.size() >= out.sent) break;
        }
        if (Clock::now() >= grace) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::vector<Reply> replies;
    {
        std::lock_guard<std::mutex> lock(rig.replies_mutex);
        replies.swap(rig.replies);
    }
    const gate::GateStats after = rig.server->stats();
    out.deadline_missed = after.deadline_missed - before.deadline_missed;
    out.admitted = after.admitted - before.admitted;

    std::vector<const Reply*> by_request(out.sent, nullptr);
    for (const Reply& r : replies)
        if (r.id >= id_base && r.id - id_base < out.sent)
            by_request[r.id - id_base] = &r;
    for (std::size_t k = 0; k < out.sent; ++k) {
        const Payload& p = rig.payloads[which[k]];
        const Reply* r = by_request[k];
        double latency = seconds; // a miss
        if (r == nullptr) {
            ++out.failed;
            report.check(false, "gate: request unanswered");
        } else if (r->status == gate::Status::kOk) {
            ++out.ok;
            latency = static_cast<double>(r->at_ns - start_ns) * 1e-9 - due[k];
            // Within deadline counts from the moment the request went on
            // the wire, as the gate's own deadline does; the generator's
            // lateness is reported on its own.
            if (static_cast<double>(r->at_ns - sent_ns[k]) * 1e-3 <=
                p.request.deadline_us) {
                ++out.ok_in_deadline;
                out.goodput_numbers += p.numbers;
            }
            out.loss_sum += logistic_loss(r->margin, p.label);
            report.check(r->score == p.expected_score,
                         "gate: reply score differs from engine score");
        } else if (r->status == gate::Status::kResourceExhausted ||
                   r->status == gate::Status::kDeadlineExceeded) {
            ++out.shed; // explicit refusal: the designed overload answer
            report.check(true, "");
        } else {
            ++out.failed;
            report.check(false, std::string("gate: reply status ") +
                                    gate::to_string(r->status));
        }
        out.latency.push_back(latency);
    }
    return out;
}

void
phase_details(const char* name, const PhaseResult& r, double rps,
              Report& report)
{
    const std::string k = std::string("gate.") + name;
    report.detail(k + ".offered_rps", rps);
    report.detail(k + ".sent", static_cast<double>(r.sent));
    report.detail(k + ".ok", static_cast<double>(r.ok));
    report.detail(k + ".shed", static_cast<double>(r.shed));
    report.detail(k + ".failed", static_cast<double>(r.failed));
    report.detail(k + ".unsent", static_cast<double>(r.unsent));
    report.detail(k + ".latency", summarize(r.latency));
    report.detail(k + ".generator_late", summarize(r.late));
}

struct TwoPhases
{
    PhaseResult steady, overload;
};

TwoPhases
run_phases(GateRig& rig, double steady_rps, double overload_rps,
           double phase_seconds, std::uint64_t seed, Report& report)
{
    TwoPhases out;
    out.steady =
        run_phase(rig, steady_rps, phase_seconds, seed * 2 + 1, 1u << 30,
                  report);
    out.overload = run_phase(rig, overload_rps, phase_seconds, seed * 2 + 2,
                             2u << 30, report);
    return out;
}

double
goodput(const PhaseResult& r)
{
    return static_cast<double>(r.ok_in_deadline) / r.seconds;
}

obs::Histo&
hop(GateRig& rig, const char* name)
{
    return rig.registry.histogram(
        obs::labeled("gate.hop_seconds", {{"hop", name}}));
}

void
fill_gate_layers(GateRig& rig, const TwoPhases& p, LayerValues& out)
{
    out["gate.queue_us"] = hop(rig, "queue").percentile(50.0) * 1e6;
    out["gate.score_us"] = hop(rig, "score").percentile(50.0) * 1e6;
    out["gate.shed_ratio"] =
        p.overload.sent > 0 ? static_cast<double>(p.overload.shed) /
                                  static_cast<double>(p.overload.sent)
                            : 0.0;
    const double admitted =
        static_cast<double>(p.steady.admitted + p.overload.admitted);
    out["gate.deadline_missed_ratio"] =
        admitted > 0 ? static_cast<double>(p.steady.deadline_missed +
                                           p.overload.deadline_missed) /
                           admitted
                     : 0.0;
    std::vector<double> late = p.steady.late;
    late.insert(late.end(), p.overload.late.begin(), p.overload.late.end());
    out["gate.generator_late_ms"] = summarize(late).tail * 1e3;
    for (const auto& [name, r] :
         {std::pair{"steady", &p.steady}, std::pair{"overload", &p.overload}}) {
        const std::string k = std::string("gate.") + name;
        out[k + ".sent"] = static_cast<double>(r->sent);
        out[k + ".ok"] = static_cast<double>(r->ok);
        out[k + ".shed"] = static_cast<double>(r->shed);
        out[k + ".failed"] = static_cast<double>(r->failed);
    }
}

void
reset_hops(GateRig& rig)
{
    hop(rig, "queue").reset();
    hop(rig, "score").reset();
}

/// Closed-loop capacity: `window` requests in flight for `seconds`.
double
probe_capacity(GateRig& rig, double seconds)
{
    constexpr std::size_t kWindow = 512;
    std::size_t sent = 0;
    const auto start = Clock::now();
    while (seconds_since(start) < seconds) {
        std::size_t answered = 0;
        {
            std::lock_guard<std::mutex> lock(rig.replies_mutex);
            answered = rig.replies.size();
        }
        if (sent - answered >= kWindow) {
            std::this_thread::yield();
            continue;
        }
        gate::ScoreRequest& request =
            rig.payloads[sent % rig.payloads.size()].request;
        request.request_id = sent;
        if (!rig.client->send(request)) break;
        ++sent;
    }
    std::lock_guard<std::mutex> lock(rig.replies_mutex);
    std::size_t ok = 0;
    for (const Reply& r : rig.replies) ok += r.status == gate::Status::kOk;
    return static_cast<double>(ok) / seconds_since(start);
}

} // namespace

void
gate_layer_run(const GateLoad& load, Report& report, LayerValues& out)
{
    GateRig rig(load.dim, load.seed);
    reset_hops(rig);
    const TwoPhases p = run_phases(rig, load.steady_rps, load.overload_rps,
                                   load.phase_seconds, load.seed, report);
    fill_gate_layers(rig, p, out);
}

int
run_gate_mixed(const Options& options, Report& report)
{
    const std::size_t dim = gate_dim(options);
    std::unique_ptr<GateRig> rig;
    const double setup_s = median_setup(
        options.trace ? 1 : kSetups, [&] { rig.reset(); },
        [&] {
            obs::ScopedSpan span("bench", "gate.setup");
            rig = std::make_unique<GateRig>(dim, options.seed);
        });
    if (options.probe) {
        std::printf("gate-mixed capacity, dim %zu: %.0f req/s closed-loop\n",
                    dim, probe_capacity(*rig, options.seconds));
        return 2;
    }
    if (options.steady_rps <= 0 || options.overload_rps <= 0) {
        std::fprintf(stderr, "gate-mixed needs --steady-rps and "
                             "--overload-rps\n");
        return 2;
    }
    report.detail("shape", "dim " + std::to_string(dim) + ", " +
                               std::to_string(kPayloads) +
                               " payloads (dense f32 / q8 / 1% sparse), "
                               "Ms8, 1 scoring worker, 1 connection");
    // Warm-up: connection buffers, kernel resolution, the cost model.
    run_phase(*rig, options.steady_rps, 0.3, options.seed + 7, 3u << 30,
              report);
    reset_hops(*rig);

    if (!options.trace) {
        const TwoPhases p =
            run_phases(*rig, options.steady_rps, options.overload_rps,
                       options.seconds / 2, options.seed, report);
        phase_details("steady", p.steady, options.steady_rps, report);
        phase_details("overload", p.overload, options.overload_rps, report);
        const std::uint64_t ok = p.steady.ok + p.overload.ok;
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("gnps",
                      p.overload.goodput_numbers / p.overload.seconds / 1e9,
                      "GNPS");
        report.metric("goodput_per_s", goodput(p.overload), "1/s");
        report.metric("loss",
                      ok > 0 ? (p.steady.loss_sum + p.overload.loss_sum) /
                                   static_cast<double>(ok)
                             : 0.0,
                      "nats");
        return 0;
    }

    const TwoPhases untraced =
        run_phases(*rig, options.steady_rps, options.overload_rps,
                   options.seconds / 4, options.seed, report);
    LayerValues layer;
    fill_gate_layers(*rig, untraced, layer);
    start_tracing();
    const TwoPhases traced =
        run_phases(*rig, options.steady_rps, options.overload_rps,
                   options.seconds / 4, options.seed, report);
    stop_tracing();
    layer["obs.trace_overhead_pct"] =
        (goodput(untraced.overload) / goodput(traced.overload) - 1.0) * 100.0;
    layer["dataset.generate_s"] = rig->generate_seconds;

    Shape shape;
    shape.dim = dim;
    shape.dense = &rig->rows;
    shape.density = kSparseDensity;
    // Serving scores float features against the Ms8 model.
    shape.signature = dmgc::parse_signature("D32fM8");
    shape.codec = ps::Codec::qsgd(4);
    shape.seed = options.seed;
    run_ladder(shape, options, std::move(layer), report);
    return 0;
}

} // namespace perfbench
