/**
 * @file
 * Parameter-server metrics — what a training-cluster operator watches.
 *
 * Each ServerShard owns a ShardMetrics and mutates it from its own
 * thread only (no locks on the hot path); the control endpoint collects
 * them over a kStats round-trip into a PsMetrics snapshot at the end of
 * a run, and adds the fabric counters plus the workers' compute totals. The
 * structure mirrors serve::ServeMetrics: plain value types, derived
 * quantities as methods, a histogram for the distribution that matters —
 * there it was batch sizes, here it is push staleness.
 */
#ifndef BUCKWILD_PS_METRICS_H
#define BUCKWILD_PS_METRICS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace buckwild::ps {

/// Counters one server shard accumulates while serving its slice.
struct ShardMetrics
{
    std::uint64_t pushes = 0;     ///< gradients applied
    std::uint64_t duplicates = 0; ///< retransmitted pushes deduplicated
    std::uint64_t gated = 0;      ///< pushes bounced by the staleness bound
    std::uint64_t pulls = 0;      ///< slice snapshots served
    std::uint64_t push_bytes = 0; ///< wire bytes of applied pushes
    std::uint64_t pull_bytes = 0; ///< wire bytes of served kModel replies
    double apply_seconds = 0.0;   ///< time inside the update kernel
    double numbers = 0.0;         ///< gradient numbers applied (GNPS numerator)
    std::uint64_t sparse_nnz = 0;   ///< nonzeros applied via sparse pushes
    std::uint64_t sparse_bytes = 0; ///< wire bytes of applied sparse pushes
    /// staleness_counts[s] = applied pushes whose worker was s rounds
    /// ahead of the slowest live worker at apply time.
    std::vector<std::uint64_t> staleness_counts;

    std::size_t
    max_staleness() const
    {
        for (std::size_t s = staleness_counts.size(); s > 0; --s)
            if (staleness_counts[s - 1] > 0) return s - 1;
        return 0;
    }
};

/// Flattens shard counters into the kStats reply vector — how a shard
/// process reports its metrics to the control endpoint over the wire.
/// Layout: [pushes, duplicates, gated, pulls, push_bytes, pull_bytes,
/// apply_seconds, numbers, sparse_nnz, sparse_bytes,
/// staleness_counts...].
inline std::vector<double>
shard_metrics_to_stats(const ShardMetrics& metrics)
{
    std::vector<double> stats = {
        static_cast<double>(metrics.pushes),
        static_cast<double>(metrics.duplicates),
        static_cast<double>(metrics.gated),
        static_cast<double>(metrics.pulls),
        static_cast<double>(metrics.push_bytes),
        static_cast<double>(metrics.pull_bytes),
        metrics.apply_seconds,
        metrics.numbers,
        static_cast<double>(metrics.sparse_nnz),
        static_cast<double>(metrics.sparse_bytes),
    };
    for (const std::uint64_t count : metrics.staleness_counts)
        stats.push_back(static_cast<double>(count));
    return stats;
}

/// Inverse of shard_metrics_to_stats (tolerates a short vector: missing
/// fields stay zero).
inline ShardMetrics
shard_metrics_from_stats(const std::vector<double>& stats)
{
    ShardMetrics metrics;
    const auto u64 = [&](std::size_t i) {
        return i < stats.size() ? static_cast<std::uint64_t>(stats[i]) : 0;
    };
    metrics.pushes = u64(0);
    metrics.duplicates = u64(1);
    metrics.gated = u64(2);
    metrics.pulls = u64(3);
    metrics.push_bytes = u64(4);
    metrics.pull_bytes = u64(5);
    metrics.apply_seconds = 6 < stats.size() ? stats[6] : 0.0;
    metrics.numbers = 7 < stats.size() ? stats[7] : 0.0;
    metrics.sparse_nnz = u64(8);
    metrics.sparse_bytes = u64(9);
    for (std::size_t i = 10; i < stats.size(); ++i)
        metrics.staleness_counts.push_back(
            static_cast<std::uint64_t>(stats[i]));
    return metrics;
}

/// A consistent snapshot of the whole cluster's counters.
struct PsMetrics
{
    std::vector<ShardMetrics> shards;
    // Fabric (transport) totals.
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_dropped = 0;
    std::uint64_t wire_bytes_sent = 0;
    std::uint64_t rpc_retries = 0; ///< worker + control retransmissions
    // Worker compute totals.
    double worker_seconds = 0.0; ///< summed worker wall time
    double numbers = 0.0;        ///< gradient numbers computed

    std::uint64_t
    total_pushes() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.pushes;
        return total;
    }

    std::uint64_t
    total_push_bytes() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.push_bytes;
        return total;
    }

    std::uint64_t
    total_pull_bytes() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.pull_bytes;
        return total;
    }

    std::uint64_t
    total_gated() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.gated;
        return total;
    }

    std::uint64_t
    total_sparse_nnz() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.sparse_nnz;
        return total;
    }

    std::uint64_t
    total_sparse_bytes() const
    {
        std::uint64_t total = 0;
        for (const auto& s : shards) total += s.sparse_bytes;
        return total;
    }

    std::size_t
    max_staleness() const
    {
        std::size_t worst = 0;
        for (const auto& s : shards)
            worst = std::max(worst, s.max_staleness());
        return worst;
    }

    /// Merged staleness histogram across shards.
    std::vector<std::uint64_t>
    staleness_histogram() const
    {
        std::vector<std::uint64_t> merged;
        for (const auto& s : shards) {
            if (s.staleness_counts.size() > merged.size())
                merged.resize(s.staleness_counts.size(), 0);
            for (std::size_t i = 0; i < s.staleness_counts.size(); ++i)
                merged[i] += s.staleness_counts[i];
        }
        return merged;
    }

    /// Training throughput in giga-numbers-per-second of worker time.
    double
    gnps() const
    {
        return worker_seconds > 0.0 ? numbers / worker_seconds / 1e9 : 0.0;
    }

    /// Copies the snapshot into `registry` under `prefix` (e.g. "ps.")
    /// so CLI runs can export it as flat metrics JSON next to the
    /// hot-path instrumentation counters. The authoritative store stays
    /// thread-owned ShardMetrics — shards count lock-free and exactly,
    /// and this bridge runs once a run has finished.
    void
    publish(obs::MetricsRegistry& registry, const std::string& prefix) const
    {
        registry.counter(prefix + "pushes_applied").add(total_pushes());
        registry.counter(prefix + "push_bytes").add(total_push_bytes());
        registry.counter(prefix + "pull_bytes").add(total_pull_bytes());
        registry.counter(prefix + "gated").add(total_gated());
        registry.counter(prefix + "sparse_nnz").add(total_sparse_nnz());
        registry.counter(prefix + "sparse_bytes").add(total_sparse_bytes());
        registry.counter(prefix + "messages_sent").add(messages_sent);
        registry.counter(prefix + "messages_dropped").add(messages_dropped);
        registry.counter(prefix + "wire_bytes_sent").add(wire_bytes_sent);
        registry.counter(prefix + "rpc_retries").add(rpc_retries);
        registry.gauge(prefix + "worker_seconds").add(worker_seconds);
        registry.gauge(prefix + "numbers").add(numbers);
        registry.gauge(prefix + "gnps").set(gnps());
        obs::Histo& staleness = registry.histogram(prefix + "staleness");
        const std::vector<std::uint64_t> merged = staleness_histogram();
        for (std::size_t s = 0; s < merged.size(); ++s)
            for (std::uint64_t i = 0; i < merged[s]; ++i)
                staleness.record(static_cast<double>(s));
    }
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_METRICS_H
