/**
 * @file
 * ClusterTrainer — data-parallel SGD over the sharded parameter server.
 *
 * W worker threads each own a contiguous slice of the training examples.
 * A worker's round: compute a mini-batch gradient on its local model
 * replica, add the carried error-feedback residual, quantize each
 * shard's slice of it to the communication precision (Cs32 / Cs8 / Cs1,
 * via ps/quantize), and push every slice in one exchange that also pulls
 * the next round's model; a push bounced by the staleness gate is
 * retried after a short backoff. This is the *executed* version of the DMGC C axis that
 * core/comm_sgd only emulates: real threads, real message traffic, real
 * asynchrony — with convergence preserved by the same error-feedback
 * trick (Seide et al.) the emulation validates statistically.
 *
 * When a serve::ModelRegistry is supplied, a publisher on the caller's
 * thread checkpoints the shards every `publish_every` applied worker
 * rounds (and once at the end) straight into the registry — a serving
 * cluster hot-swaps onto the training cluster's progress with no file in
 * between.
 */
#ifndef BUCKWILD_PS_CLUSTER_H
#define BUCKWILD_PS_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/loss.h"
#include "core/model_io.h"
#include "dataset/problem.h"
#include "ps/server.h"
#include "serve/model_registry.h"
#include "serve/precision.h"

namespace buckwild::ps {

/// Configuration of a training cluster run.
struct ClusterConfig
{
    std::size_t workers = 2;
    std::size_t shards = 2;
    /// Communication codec: Cs32 / Cs8 / Cs1 / CsQ<b> (ps/quantize.h).
    Codec codec;
    /// Carry the quantization error forward (essential below 32 bits).
    bool error_feedback = true;
    /// Rounds (mini-batch pushes) per worker.
    std::size_t rounds = 200;
    /// Examples per mini-batch gradient.
    std::size_t batch = 16;
    /// Staleness bound: max rounds a worker may run ahead of the slowest.
    std::size_t tau = 8;
    float step_size = 0.25f;
    core::Loss loss = core::Loss::kLogistic;
    simd::Impl impl = simd::best_impl();
    FaultModel faults;
    /// Publish a checkpoint into the registry every this many applied
    /// worker rounds (0 = only the final publish). Ignored without a
    /// registry.
    std::size_t publish_every = 0;
    serve::Precision publish_precision = serve::Precision::kFloat32;

    // ---- distributed observability (multi-process runs) ----

    /// When non-empty, every --spawn child enables tracing, tags itself
    /// (shard<i> / worker<i>, the parent as control) and writes
    /// <trace_dir>/<role>.trace.json on exit — the per-process inputs
    /// buckwild_tracemerge stitches into one fleet timeline.
    std::string trace_dir;
    /// When >= 0, every --spawn child serves /metrics on an ephemeral
    /// port and the parent re-exposes the merged, node-labeled fleet
    /// scrape on this port (0 = ephemeral, printed at startup) for the
    /// duration of the run.
    int fleet_port = -1;
};

/// Outcome of a cluster run: convergence, traffic, and cluster metrics.
struct ClusterResult
{
    /// Communication-precision label, e.g. "Cs1" (matching the emulated
    /// trainer's signatures).
    std::string comm;
    double final_loss = 0.0;
    double accuracy = 0.0;
    /// Wire bytes one worker pushes per round (all shard slices).
    /// Computed statically for the fixed-size codecs; *measured* from
    /// the encoded traffic for the variable-bit CsQ tiers.
    double bytes_per_round = 0.0;
    /// Worker rounds applied across the cluster.
    std::uint64_t rounds = 0;
    double wall_seconds = 0.0;
    /// The final model with its async-C DMGC provenance — ready for
    /// core::save_model_file or another registry publish.
    core::SavedModel checkpoint;
    /// Shard, fabric, and worker counters.
    PsMetrics metrics;
    /// Registry versions published during the run (last one is final).
    std::vector<std::uint64_t> published_versions;
    /// The port the merged fleet /metrics actually bound during a
    /// multi-process run (-1 = fleet view off or bind failed).
    int fleet_port = -1;
    /// The final merged, node-labeled Prometheus exposition body taken
    /// while the fleet was still up (empty = fleet view off). Also
    /// written to `<trace_dir>/fleet.prom` when tracing to a directory.
    std::string fleet_metrics;
};

/**
 * Trains on `problem` with a freshly started parameter-server cluster
 * and returns once every worker finished its rounds and the shards
 * stopped. Publishes into `registry` when non-null.
 *
 * @throws std::runtime_error on an invalid configuration.
 */
ClusterResult train_cluster(const dataset::DenseProblem& problem,
                            const ClusterConfig& config,
                            serve::ModelRegistry* registry = nullptr);

/**
 * The sparse-workload sibling: workers run the sparse round loop
 * (touched-coordinate accumulation, sparse error feedback) and every
 * push on the fabric is a quantized sparse gradient — nnz values plus an
 * Elias-gamma index-gap stream — applied at the shards through the
 * gather-scatter sparse kernels. bytes_per_round is always measured
 * (sparse traffic is nnz-dependent at every tier) and the checkpoint
 * carries the sparse DMGC signature row.
 */
ClusterResult train_cluster(const dataset::SparseProblem& problem,
                            const ClusterConfig& config,
                            serve::ModelRegistry* registry = nullptr);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_CLUSTER_H
