#include "ps/cluster.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "ps/node.h"
#include "ps/workload.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace buckwild::ps {

namespace {

/**
 * The in-process fabric: every shard on its own thread behind one
 * InProcTransport. Stopping closes the transport — each shard drains its
 * mailbox and leaves its loop — and joins the threads. The socket
 * shards' kShutdown would not do here: InProcTransport applies drop
 * faults to shard replies as well, so a lost shutdown ack would leave
 * the controller retransmitting to a shard that had already exited
 * (socket shards send reliably for exactly that reason).
 */
struct InProcShards
{
    InProcTransport transport;
    std::vector<std::unique_ptr<ServerShard>> shards;
    WorkerGroup threads;

    InProcShards(const ClusterConfig& config, std::size_t dim)
        : transport(cluster_endpoints(config), config.faults)
    {
        for (std::size_t s = 0; s < config.shards; ++s)
            shards.push_back(std::make_unique<ServerShard>(
                s, slice_begin(dim, config.shards, s),
                slice_end(dim, config.shards, s), shard_config_of(config),
                transport));
    }

    ~InProcShards() { stop(); }
    InProcShards(const InProcShards&) = delete;
    InProcShards& operator=(const InProcShards&) = delete;

    void
    start()
    {
        threads.start(shards.size(),
                      [this](std::size_t s) { shards[s]->run(); });
    }

    /// Idempotent.
    void
    stop()
    {
        transport.close();
        threads.join();
    }
};

template <typename Problem>
ClusterResult
train_cluster_impl(const Problem& problem, const ClusterConfig& config,
                   serve::ModelRegistry* registry)
{
    validate_cluster_config(config, problem.dim,
                            detail::example_count(problem));
    InProcShards fabric(config, problem.dim);
    RpcClient control(fabric.transport, control_endpoint_of(config));
    const auto snapshot = [&] {
        std::vector<float> model(problem.dim);
        pull_model(control, config.shards, 0, model);
        return model;
    };

    ClusterResult result;
    std::atomic<std::uint64_t> rounds_done{0};
    std::vector<WorkerStats> worker_stats(config.workers);

    Stopwatch wall;
    fabric.start();
    {
        // The worker round loop itself lives in ps/node.cpp — shared
        // verbatim with the multi-process socket workers.
        WorkerGroup workers;
        workers.start(config.workers, [&](std::size_t w) {
            worker_stats[w] = run_worker_rounds(config, problem, w,
                                                fabric.transport,
                                                &rounds_done);
        });

        // The caller's thread doubles as the publisher: every
        // publish_every applied worker rounds, checkpoint the shards
        // into the registry — serving hot-swaps onto training progress
        // mid-run.
        const std::uint64_t total_rounds =
            static_cast<std::uint64_t>(config.workers) * config.rounds;
        std::uint64_t next_publish =
            registry != nullptr && config.publish_every > 0
                ? config.publish_every
                : total_rounds + 1;
        while (rounds_done.load(std::memory_order_acquire) < total_rounds) {
            if (rounds_done.load(std::memory_order_acquire) >= next_publish) {
                result.published_versions.push_back(registry->publish(
                    make_cluster_checkpoint(
                        config, snapshot(),
                        detail::is_sparse_workload(problem)),
                    config.publish_precision));
                while (next_publish <=
                       rounds_done.load(std::memory_order_acquire))
                    next_publish += config.publish_every;
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
    }

    // Final state: snapshot it once and count the shards while they
    // still answer, then stop them. The fabric totals stop at the
    // snapshot: a kStats reply's size follows the staleness histogram,
    // which would make them differ between two otherwise equal runs.
    std::vector<float> model = snapshot();
    result.metrics.messages_sent = fabric.transport.sent();
    result.metrics.messages_dropped = fabric.transport.dropped();
    result.metrics.wire_bytes_sent = fabric.transport.sent_bytes();
    result.metrics.shards = shard_stats(control, config.shards);
    result.wall_seconds = wall.seconds();
    fabric.stop();
    result.metrics.rpc_retries = control.retries();
    finish_cluster_result(problem, config, std::move(model), worker_stats,
                          result);
    // Publish that exact version: the one a serving cluster ends on.
    if (registry != nullptr)
        result.published_versions.push_back(
            registry->publish(result.checkpoint, config.publish_precision));
    return result;
}

} // namespace

ClusterResult
train_cluster(const dataset::DenseProblem& problem,
              const ClusterConfig& config, serve::ModelRegistry* registry)
{
    return train_cluster_impl(problem, config, registry);
}

ClusterResult
train_cluster(const dataset::SparseProblem& problem,
              const ClusterConfig& config, serve::ModelRegistry* registry)
{
    return train_cluster_impl(problem, config, registry);
}

} // namespace buckwild::ps
