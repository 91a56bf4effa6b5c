/**
 * @file
 * Cluster node roles — the pieces a multi-process parameter-server
 * deployment is assembled from, and the fork-based assembler itself.
 *
 * The endpoint layout is the ParameterServer's, shared cluster-wide:
 * shards at [0, S), workers at [S, S+W), control at S+W. In-process,
 * ParameterServer hosts everything behind one InProcTransport; across
 * processes, each role hosts its own endpoint(s) behind a
 * SocketTransport:
 *
 *  - run_shard_node(): a listening shard process — serves its slice
 *    until a kShutdown arrives, then returns its metrics;
 *  - run_worker_node(): a worker process — dials the shard addresses,
 *    runs its training rounds, returns its WorkerStats;
 *  - ControlClient: snapshot / stats / shutdown against remote shards
 *    from the control endpoint (what `buckwild_cluster --control` and
 *    the --spawn parent use);
 *  - train_cluster_multiprocess(): the --spawn convenience — binds every
 *    shard listener up front (race-free port assignment), forks S shard
 *    and W worker processes, collects worker stats over pipes, then
 *    snapshots, gathers shard metrics, and shuts the shards down as the
 *    control client. Call it before spawning any threads in the parent
 *    (fork() and threads do not mix).
 *
 * run_worker_rounds() is the one worker training loop, shared verbatim
 * by the in-process trainer (ps/cluster.cpp) and the socket worker — so
 * the two execution modes differ only in the fabric underneath.
 *
 * Fault injection in multi-process mode is sender-side at the clients:
 * worker and control processes apply the configured FaultModel to their
 * sends, shard processes drop/delay nothing (their reorder window still
 * applies). This keeps teardown deliverable — a shard that drops its own
 * kShutdown ack would exit while the controller retransmits into a dead
 * connection forever.
 */
#ifndef BUCKWILD_PS_NODE_H
#define BUCKWILD_PS_NODE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.h"
#include "ps/cluster.h"
#include "ps/socket_transport.h"

namespace buckwild::ps {

// ------------------------------------------------- endpoint geometry

/// First coordinate of shard s's slice (identical to
/// ParameterServer::shard_begin).
inline std::size_t
slice_begin(std::size_t dim, std::size_t shards, std::size_t s)
{
    return s * dim / shards;
}

/// One past the last coordinate of shard s's slice.
inline std::size_t
slice_end(std::size_t dim, std::size_t shards, std::size_t s)
{
    return (s + 1) * dim / shards;
}

/// Total transport endpoints of a cluster: S shards + W workers + 1
/// control.
inline std::size_t
cluster_endpoints(const ClusterConfig& config)
{
    return config.shards + config.workers + 1;
}

/// Endpoint of worker w's reply mailbox.
inline std::size_t
worker_endpoint_of(const ClusterConfig& config, std::size_t w)
{
    return config.shards + w;
}

/// The control endpoint (snapshot / stats / shutdown traffic).
inline std::size_t
control_endpoint_of(const ClusterConfig& config)
{
    return config.shards + config.workers;
}

// ------------------------------------------------------ worker rounds

/// What one worker reports when its rounds are done — plain values so a
/// forked worker process can ship them to the parent through a pipe.
struct WorkerStats
{
    double seconds = 0.0;          ///< wall time inside the round loop
    std::uint64_t retries = 0;     ///< RPC retransmissions
    std::uint64_t rounds = 0;      ///< rounds completed
    std::uint64_t encoded_bytes = 0; ///< wire bytes of pushed gradients
    std::uint64_t encoded_nnz = 0;   ///< nonzeros pushed (sparse rounds)
};

/**
 * Runs worker `worker`'s full training loop over `transport` — any
 * fabric: one pull of every slice, then per round a mini-batch
 * gradient, error feedback, an encode per shard slice and one
 * push+pull exchange with every shard (SSP-nacked pushes back off
 * alone), then retire. Increments `*rounds_done` (when non-null) after
 * each round, for an external publisher loop.
 */
WorkerStats run_worker_rounds(const ClusterConfig& config,
                              const dataset::DenseProblem& problem,
                              std::size_t worker, Transport& transport,
                              std::atomic<std::uint64_t>* rounds_done);

/**
 * The sparse sibling of run_worker_rounds(): minibatch gradients are
 * accumulated over only the touched coordinates (CSR rows through the
 * registered sparse dot kernels), error feedback is a sparse residual,
 * and each shard receives the nnz run falling inside its range as a
 * sparse push (encode_sparse_gradient) — including an empty push when
 * no coordinate landed there, so the SSP clocks advance uniformly.
 * Shared by the in-process trainer and the socket worker, like the
 * dense loop.
 */
WorkerStats run_worker_rounds(const ClusterConfig& config,
                              const dataset::SparseProblem& problem,
                              std::size_t worker, Transport& transport,
                              std::atomic<std::uint64_t>* rounds_done);

// ------------------------------------------------------- node roles

/// How a shard process binds its endpoint.
struct ShardNodeOptions
{
    std::size_t index = 0; ///< shard index == transport endpoint
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral
    /// Pre-bound listener inherited from the --spawn parent (takes
    /// ownership; overrides bind_address/port).
    int adopt_listen_fd = -1;
    /// When non-null, receives the actually bound port before serving.
    std::uint16_t* bound_port = nullptr;
};

/// Serves shard `options.index` over TCP until a kShutdown arrives;
/// returns the shard's counters. Blocks the calling thread.
ShardMetrics run_shard_node(const ClusterConfig& config, std::size_t dim,
                            const ShardNodeOptions& options);

/// Runs worker `worker` against remote shards at `shard_addresses`
/// (index s = shard s). Blocks until the rounds are done.
WorkerStats run_worker_node(const ClusterConfig& config,
                            const dataset::DenseProblem& problem,
                            std::size_t worker,
                            const std::vector<net::Address>& shard_addresses);

/// Sparse-workload worker process (same fabric, sparse round loop).
WorkerStats run_worker_node(const ClusterConfig& config,
                            const dataset::SparseProblem& problem,
                            std::size_t worker,
                            const std::vector<net::Address>& shard_addresses);

/// The control endpoint's view of a remote cluster.
class ControlClient
{
  public:
    ControlClient(const ClusterConfig& config,
                  const std::vector<net::Address>& shard_addresses);

    /// Assembles the full model by pulling every shard.
    std::vector<float> snapshot(std::size_t dim);

    /// Per-shard counters (kStats round-trip to every shard).
    std::vector<ShardMetrics> stats();

    /// Tells every shard to exit its message loop.
    void shutdown();

    std::uint64_t retries() const { return rpc_.retries(); }

  private:
    const ClusterConfig config_;
    SocketTransport transport_;
    RpcClient rpc_;
};

// --------------------------------------------------------- assembly

/// Average loss and accuracy of `model` over the whole problem, with
/// the same scalar evaluation loop the emulated trainer uses.
void evaluate_model(const dataset::DenseProblem& problem, core::Loss loss,
                    const std::vector<float>& model, double* out_loss,
                    double* out_accuracy);

/// Sparse evaluation: per-example dots through the registered sparse
/// kernels over the CSR rows.
void evaluate_model(const dataset::SparseProblem& problem, core::Loss loss,
                    const std::vector<float>& model, double* out_loss,
                    double* out_accuracy);

/// Wraps final weights in the async-C DMGC provenance signature at the
/// configured wire codec (what ParameterServer::checkpoint does, without
/// needing a live server). `sparse` selects the sparse signature row
/// (D32f i32 M32f with the async C term) for sparse-workload runs.
core::SavedModel make_cluster_checkpoint(const ClusterConfig& config,
                                         std::vector<float> weights,
                                         bool sparse = false);

/// Static per-round push bytes (header + payload per shard slice) for
/// the fixed-size codecs; 0 for the variable-bit CsQ tiers, whose
/// traffic is measured from WorkerStats::encoded_bytes instead.
double fixed_bytes_per_round(const ClusterConfig& config, std::size_t dim);

/**
 * train_cluster over real processes: forks config.shards shard processes
 * and config.workers worker processes on this machine, connected over
 * loopback TCP, and drives teardown as the control client. The returned
 * result mirrors train_cluster()'s, with two caveats: fabric counters
 * (messages_sent/dropped) are per-process and not aggregated, and
 * registry publishing is unavailable (no shared address space).
 *
 * Must be called while this process is single-threaded (it forks).
 * @throws std::runtime_error on invalid config or a failed child.
 */
ClusterResult train_cluster_multiprocess(const dataset::DenseProblem& problem,
                                         const ClusterConfig& config);

/// Multi-process training on a sparse (RCV1-style) workload: worker
/// children run the sparse round loop and every push on the wire is a
/// quantized sparse gradient. bytes_per_round is always measured from
/// the encoded traffic (sparse payloads are nnz-dependent even at the
/// fixed tiers).
ClusterResult train_cluster_multiprocess(const dataset::SparseProblem& problem,
                                         const ClusterConfig& config);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_NODE_H
