/**
 * @file
 * The two parameter-server workloads.
 *
 * ps-qsgd: in-process ps::train_cluster on a dense problem, CsQ4 with
 * error feedback, 2 workers x 2 shards, tau 8, batch 16. QSGD encode /
 * decode and the worker's minibatch loops dominate; the fabric is
 * in-process mailboxes, so net and ps/wire never run.
 *
 * ps-sparse-tcp: a sparse RCV1-style problem at 1% density, Cs8 with
 * error feedback, 2 workers x 2 shards over loopback SocketTransport,
 * threads standing in for processes (run_shard_node / run_worker_node /
 * ControlClient). The sparse worker loop, the gather/scatter SparseOps,
 * the gamma index stream, ps/wire and net framing run; QSGD level
 * rounding does not. A dense-only gain in ps can slow this one.
 *
 * One operation is one fixed-budget training run: cluster bring-up,
 * every worker's rounds, snapshot and evaluation, teardown.
 */
#include <algorithm>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "net/socket.h"
#include "obs/trace.h"
#include "ps/node.h"
#include "ps/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace buckwild;

namespace {

struct Sizes
{
    std::size_t dim;
    std::size_t examples; ///< several times dim (see BENCHMARK.json)
    double density;       ///< 1.0 = dense problem
    std::size_t rounds;   ///< per worker
};

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShards = 2;

ps::ClusterConfig
cluster_config(const ps::Codec& codec, std::size_t rounds)
{
    ps::ClusterConfig cfg;
    cfg.workers = kWorkers;
    cfg.shards = kShards;
    cfg.codec = codec;
    cfg.error_feedback = true;
    cfg.rounds = rounds;
    cfg.batch = 16;
    cfg.tau = 8;
    return cfg;
}

/// Per-run samples of a window; the report takes their medians.
struct Accumulated
{
    std::vector<double> wall, rounds_per_s, gnps, loss, accuracy;
    std::map<std::string, std::vector<double>> layer;
};

void
check_run(const ps::ClusterResult& result, const ps::ClusterConfig& cfg,
          double accuracy_floor, Report& report)
{
    const std::string tag = "cluster " + result.comm + ": ";
    report.check(!result.checkpoint.weights.empty() &&
                     all_finite(result.checkpoint.weights),
                 tag + "final model not finite");
    report.check(result.accuracy >= accuracy_floor,
                 tag + "accuracy " + std::to_string(result.accuracy) +
                     " below floor");
    // Exactly-once: every round of every worker applied at every shard.
    report.check(result.rounds == cfg.workers * cfg.rounds &&
                     result.metrics.total_pushes() ==
                         result.rounds * cfg.shards,
                 tag + "rounds or pushes lost");
}

/// Socket cluster run, threads standing in for processes: binds the
/// shard listeners, serves the shards and runs the workers on threads,
/// then snapshots, evaluates and shuts down as the control client.
/// `train_seconds` receives the workers' wall time (start to join).
ps::ClusterResult
train_over_sockets(const dataset::SparseProblem& problem,
                   const ps::ClusterConfig& cfg, double* train_seconds)
{
    // Bind every shard listener first: race-free advertised ports.
    std::vector<net::Fd> listeners(cfg.shards);
    std::vector<net::Address> addresses(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        listeners[s] = net::listen_tcp("127.0.0.1", 0, 16, &port, &error);
        if (!listeners[s].valid())
            throw std::runtime_error("listen: " + error);
        addresses[s] = {"127.0.0.1", port};
    }

    std::vector<std::unique_ptr<JoinedThread>> shards;
    for (std::size_t s = 0; s < cfg.shards; ++s)
        shards.push_back(std::make_unique<JoinedThread>([&, s] {
            obs::ScopedSpan span("bench", "ps.run_shard_node");
            ps::ShardNodeOptions options;
            options.index = s;
            options.adopt_listen_fd = listeners[s].release();
            ps::run_shard_node(cfg, problem.dim, options);
        }));

    std::vector<ps::WorkerStats> worker_stats(cfg.workers);
    std::string error;
    const auto t0 = Clock::now();
    {
        std::vector<std::unique_ptr<JoinedThread>> workers;
        for (std::size_t w = 0; w < cfg.workers; ++w)
            workers.push_back(std::make_unique<JoinedThread>([&, w] {
                obs::ScopedSpan span("bench", "ps.run_worker_node");
                worker_stats[w] =
                    ps::run_worker_node(cfg, problem, w, addresses);
            }));
        for (auto& worker : workers)
            if (error.empty()) error = worker->join();
    }
    *train_seconds = seconds_since(t0);

    ps::ClusterResult result;
    result.comm = cfg.codec.name();
    try {
        obs::ScopedSpan span("bench", "ps.control");
        ps::ControlClient control(cfg, addresses);
        result.checkpoint.weights = control.snapshot(problem.dim);
        {
            obs::ScopedSpan eval("bench", "ps.evaluate_model");
            ps::evaluate_model(problem, cfg.loss, result.checkpoint.weights,
                               &result.final_loss, &result.accuracy);
        }
        result.metrics.shards = control.stats();
        control.shutdown();
        result.metrics.rpc_retries += control.retries();
    } catch (const std::exception& e) {
        if (error.empty()) error = e.what();
        // The shard threads return only on a shutdown; retry it alone.
        try {
            ps::ControlClient(cfg, addresses).shutdown();
        } catch (const std::exception&) {
        }
    }
    for (auto& shard : shards)
        if (error.empty()) error = shard->join();
    if (!error.empty()) throw std::runtime_error(error);

    std::uint64_t encoded = 0;
    for (const ps::WorkerStats& w : worker_stats) {
        result.rounds += w.rounds;
        result.metrics.rpc_retries += w.retries;
        result.metrics.worker_seconds += w.seconds;
        encoded += w.encoded_bytes;
    }
    result.wall_seconds = *train_seconds;
    result.bytes_per_round =
        result.rounds > 0 ? static_cast<double>(encoded) /
                                static_cast<double>(result.rounds)
                          : 0.0;
    return result;
}

} // namespace

void
cluster_layer_values(const ps::ClusterResult& result, double train_seconds,
                     std::size_t shards, LayerValues& out)
{
    const ps::PsMetrics& m = result.metrics;
    std::uint64_t duplicates = 0;
    double apply_seconds = 0.0;
    for (const ps::ShardMetrics& s : m.shards) {
        duplicates += s.duplicates;
        apply_seconds += s.apply_seconds;
    }
    const double rounds = static_cast<double>(result.rounds);
    const double pushes = static_cast<double>(m.total_pushes());
    const double gated = static_cast<double>(m.total_gated());
    out["ps.transport.retransmits_per_kround"] =
        rounds > 0 ? static_cast<double>(m.rpc_retries) / rounds * 1e3 : 0.0;
    out["ps.shard.dup_ratio"] =
        pushes > 0 ? static_cast<double>(duplicates) / pushes : 0.0;
    out["ps.shard.apply_share"] =
        apply_seconds / (train_seconds * static_cast<double>(shards));
    out["ps.shard.gated_ratio"] =
        pushes + gated > 0 ? gated / (pushes + gated) : 0.0;
    // p99 of the merged staleness histogram (rounds ahead of the
    // slowest live worker at apply time).
    const std::vector<std::uint64_t> hist = m.staleness_histogram();
    std::uint64_t total = 0;
    for (const std::uint64_t c : hist) total += c;
    std::uint64_t seen = 0;
    double p99 = 0.0;
    for (std::size_t s = 0; s < hist.size(); ++s) {
        seen += hist[s];
        if (static_cast<double>(seen) >= 0.99 * static_cast<double>(total)) {
            p99 = static_cast<double>(s);
            break;
        }
    }
    out["ps.shard.staleness_p99"] = p99;
    out["ps.push_bytes_per_round"] = result.bytes_per_round;
    out["ps.rounds_per_s"] = rounds / train_seconds;
}

namespace {

template <typename Problem>
int
run_cluster(const Options& options, Report& report, const Sizes& s,
            const ps::Codec& codec, double accuracy_floor,
            const std::function<Problem()>& generate,
            const std::function<ps::ClusterResult(const Problem&,
                                                  const ps::ClusterConfig&,
                                                  double*)>& train,
            Shape shape)
{
    Problem problem;
    const double setup_s = median_setup(
        options.trace ? 1 : kSetups, [&] { problem = {}; },
        [&] {
            obs::ScopedSpan span("bench", "dataset.generate");
            problem = generate();
        });
    const ps::ClusterConfig cfg = cluster_config(codec, s.rounds);
    const double numbers_per_round =
        static_cast<double>(cfg.batch) *
        ps::detail::numbers_per_example(problem);

    Accumulated acc;
    const auto run = [&] {
        const auto t0 = Clock::now();
        double train_seconds = 0.0;
        ps::ClusterResult result;
        try {
            result = train(problem, cfg, &train_seconds);
        } catch (const std::exception& e) {
            report.check(false, std::string("cluster run: ") + e.what());
            return;
        }
        acc.wall.push_back(seconds_since(t0));
        if (options.trace) keep_spans();
        const double rounds = static_cast<double>(result.rounds);
        acc.rounds_per_s.push_back(rounds / train_seconds);
        acc.gnps.push_back(rounds * numbers_per_round / train_seconds /
                           1e9);
        acc.loss.push_back(result.final_loss);
        acc.accuracy.push_back(result.accuracy);
        LayerValues layer;
        cluster_layer_values(result, train_seconds, cfg.shards, layer);
        for (const auto& [name, value] : layer)
            acc.layer[name].push_back(value);
        check_run(result, cfg, accuracy_floor, report);
    };
    run(); // warm-up
    acc = {};

    report.detail("shape",
                  "dim " + std::to_string(s.dim) + ", examples " +
                      std::to_string(s.examples) + ", density " +
                      std::to_string(s.density) + ", " + codec.name() +
                      "+EF, 2 workers x 2 shards, tau 8, batch 16, " +
                      std::to_string(s.rounds) + " rounds/worker");
    const auto medians = [&] {
        for (const auto& [name, values] : acc.layer)
            report.detail(name, median_of(values));
    };
    if (!options.trace) {
        run_window(options.seconds, run);
        report.detail("run", summarize(acc.wall));
        report.detail("accuracy", median_of(acc.accuracy));
        medians();
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("gnps", median_of(acc.gnps), "GNPS");
        report.metric("goodput_per_s", median_of(acc.rounds_per_s), "1/s");
        report.metric("loss", median_of(acc.loss), "nats");
        return 0;
    }

    run_window(options.seconds / 2, run);
    LayerValues layer;
    for (const auto& [name, values] : acc.layer)
        layer[name] = median_of(values);
    const double untraced = median_of(acc.rounds_per_s);
    acc = {};
    start_tracing();
    run_window(options.seconds / 2, run);
    stop_tracing();
    layer["obs.trace_overhead_pct"] =
        (untraced / median_of(acc.rounds_per_s) - 1.0) * 100.0;
    layer["dataset.generate_s"] = setup_s;

    shape.dim = s.dim;
    shape.density = s.density;
    shape.codec = codec;
    shape.shards = cfg.shards;
    shape.batch = cfg.batch;
    shape.seed = options.seed;
    if constexpr (std::is_same_v<Problem, dataset::DenseProblem>)
        shape.dense = &problem;
    else
        shape.sparse = &problem;
    run_ladder(shape, options, std::move(layer), report);
    return 0;
}

} // namespace

int
run_ps_qsgd(const Options& options, Report& report)
{
    const Sizes s = options.tiny ? Sizes{256, 2048, 1.0, 50}
                                 : Sizes{2048, 16384, 1.0, 200};
    Shape shape;
    // The worker's minibatch loops run on float data and a float model.
    shape.signature = dmgc::Signature::dense_hogwild();
    return run_cluster<dataset::DenseProblem>(
        options, report, s, ps::Codec::qsgd(4), 0.65,
        [&] {
            return dataset::generate_logistic_dense(s.dim, s.examples,
                                                    options.seed);
        },
        [](const dataset::DenseProblem& problem,
           const ps::ClusterConfig& cfg, double* train_seconds) {
            obs::ScopedSpan span("bench", "ps.train_cluster");
            ps::ClusterResult r = ps::train_cluster(problem, cfg);
            *train_seconds = r.wall_seconds;
            return r;
        },
        shape);
}

int
run_ps_sparse_tcp(const Options& options, Report& report)
{
    const Sizes s = options.tiny ? Sizes{1024, 2048, 0.02, 30}
                                 : Sizes{8192, 32768, 0.01, 120};
    Shape shape;
    shape.signature = dmgc::Signature::dense_hogwild();
    return run_cluster<dataset::SparseProblem>(
        // At this budget the 1% problem reaches about 0.64; 0.6 still
        // separates training from a diverged or stalled run (0.5).
        options, report, s, ps::Codec::from_bits(8), 0.6,
        [&] {
            return dataset::generate_logistic_sparse(s.dim, s.examples,
                                                     s.density,
                                                     options.seed);
        },
        [](const dataset::SparseProblem& problem,
           const ps::ClusterConfig& cfg, double* train_seconds) {
            return train_over_sockets(problem, cfg, train_seconds);
        },
        shape);
}

} // namespace perfbench
