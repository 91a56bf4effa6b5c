/**
 * @file
 * The four workloads and the layer ladder.
 *
 * A workload run measures its end-to-end metrics (untraced) or, in the
 * traced run, the per-layer metrics: it fills the layer numbers its own
 * run produces (cluster counters, gate phases) into a LayerValues map
 * and hands its Shape to the ladder, which replays that shape through
 * every remaining layer's public functions.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "dataset/problem.h"
#include "dmgc/signature.h"
#include "ps/cluster.h"

namespace perfbench {

/// Per-layer metric name -> value, as measured so far in a traced run.
using LayerValues = std::map<std::string, double>;

/// The shapes a workload sends through the layers.
struct Shape
{
    std::size_t dim = 0;
    double density = 1.0; ///< nonzero fraction of an example
    /// Signature of the dense kernel pair the workload's hot loop runs.
    buckwild::dmgc::Signature signature;
    buckwild::ps::Codec codec; ///< gradient codec (CsQ4 where none runs)
    std::size_t shards = 2;
    std::size_t batch = 16;
    /// Problem the ladder's engine rung trains one epoch on (the
    /// workload's own inputs).
    const buckwild::dataset::DenseProblem* dense = nullptr;
    const buckwild::dataset::SparseProblem* sparse = nullptr;
    std::uint64_t seed = 1;
};

int run_hogwild(const Options& options, Report& report);
int run_ps_qsgd(const Options& options, Report& report);
int run_ps_sparse_tcp(const Options& options, Report& report);
int run_gate_mixed(const Options& options, Report& report);

// ---- pieces the ladder reuses from the workloads

/// Layer numbers of one cluster run (shard, fabric and codec counters).
void cluster_layer_values(const buckwild::ps::ClusterResult& result,
                          double train_seconds, std::size_t shards,
                          LayerValues& out);

/// Outcome of one short gate run (both phases at the given rates); the
/// per-layer gate.* numbers, plus correctness checks into `report`.
struct GateLoad
{
    std::size_t dim = 0;
    double steady_rps = 0.0;
    double overload_rps = 0.0;
    double phase_seconds = 1.0;
    std::uint64_t seed = 1;
};
void gate_layer_run(const GateLoad& load, Report& report, LayerValues& out);

/// Measures every layer metric not already in `values` at `shape`, then
/// reports all of them.
void run_ladder(const Shape& shape, const Options& options,
                LayerValues values, Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
