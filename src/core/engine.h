/**
 * @file
 * The Buckwild! training engines.
 *
 * DenseEngine<D, M> and SparseEngine<V, I, M> implement asynchronous
 * low-precision SGD over a quantized dataset (rep D / value rep V with
 * index rep I) and a quantized shared model (rep M):
 *
 *  - Each epoch, `threads` Hogwild! workers sweep the dataset without any
 *    locking, sharing the single model array (§2). Workers synchronize
 *    only at epoch boundaries.
 *  - One iteration = one dot (margin), one scalar gradient coefficient,
 *    one AXPY (§2), executed by the kernel implementation selected in the
 *    config (reference / naive / AVX2, §5.1).
 *  - Model writes round with the configured strategy (§5.2): biased,
 *    per-write Mersenne/XORSHIFT, or vectorized shared randomness.
 *  - Mini-batching (§5.4) accumulates B gradients into a per-worker float
 *    scratch vector and applies one quantized model update per batch.
 *
 * The racing Hogwild! path is the algorithm the paper measures: the model
 * is deliberately accessed without synchronization, and the resulting
 * races are benign by the Hogwild!/Buckwild! analyses the paper builds on.
 */
#ifndef BUCKWILD_CORE_ENGINE_H
#define BUCKWILD_CORE_ENGINE_H

#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "obs/obs.h"
#include "dataset/quantized.h"
#include "lowp/grid.h"
#include "lowp/rep_traits.h"
#include "lowp/round.h"
#include "lowp/shared_random.h"
#include "rng/random_source.h"
#include "simd/dense_ref.h"
#include "simd/ops.h"
#include "simd/sparse_ops.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace buckwild::core {

namespace detail {

/// G-term emulation (§3 "Gradient numbers"): quantizes an intermediate
/// value to a b-bit *symmetric* grid over [-range, range] with nearest
/// rounding (lowp::GridSpec::symmetric — bounds ±(2^(b-1)-1), so negation
/// never saturates; pinned by tests/test_lowp.cpp). Returns the input
/// unchanged for b >= 32.
inline float
quantize_intermediate(float v, int bits, float range)
{
    if (bits >= 32) return v;
    return lowp::snap_nearest(
        v, lowp::GridSpec::symmetric(bits, static_cast<double>(range)));
}

/// The fixed-scalar shift constant of a (D, M) kernel pair.
template <typename D, typename M>
constexpr int
pair_shift()
{
    if constexpr (std::is_same_v<D, std::int8_t> &&
                  std::is_same_v<M, std::int8_t>)
        return simd::kShiftD8M8;
    else if constexpr (std::is_same_v<D, std::int16_t> &&
                       std::is_same_v<M, std::int8_t>)
        return simd::kShiftD16M8;
    else if constexpr (std::is_same_v<D, std::int8_t> &&
                       std::is_same_v<M, std::int16_t>)
        return simd::kShiftD8M16;
    else
        return simd::kShiftD16M16;
}

/// Builds the pair's fixed scalar from a model-quanta-per-raw-unit value.
template <typename D, typename M>
simd::FixedScalar
pair_scalar(float c_units)
{
    if constexpr (std::is_same_v<D, std::int8_t> &&
                  std::is_same_v<M, std::int8_t>)
        return simd::make_scalar_d8m8(c_units);
    else if constexpr (std::is_same_v<D, std::int16_t> &&
                       std::is_same_v<M, std::int8_t>)
        return simd::make_scalar_d16m8(c_units);
    else if constexpr (std::is_same_v<D, std::int8_t> &&
                       std::is_same_v<M, std::int16_t>)
        return simd::make_scalar_d8m16(c_units);
    else
        return simd::make_scalar_d16m16(c_units);
}

/// The deterministic dither block for biased rounding, selected by how the
/// AXPY kernel will interpret the block.
template <typename D, typename M>
const simd::DitherBlock&
biased_block()
{
    static const simd::DitherBlock kUnit = simd::biased_unit();
    if constexpr (std::is_same_v<M, float>)
        return kUnit; // never actually read (float models don't round)
    else if constexpr (std::is_same_v<D, float>) {
        return kUnit;
    } else {
        static const simd::DitherBlock kFixed =
            simd::biased_fixed(pair_shift<D, M>());
        return kFixed;
    }
}

/// Per-write unbiased AXPY (the Mersenne / scalar-XORSHIFT strategies of
/// Fig 5): a fresh random word is drawn for every model write. Only
/// meaningful for fixed models; float models have nothing to round.
template <typename D, typename M>
void
axpy_per_write(M* w, const D* x, std::size_t n, float c, float qx, float qm,
               rng::RandomWordSource& src)
{
    if constexpr (std::is_same_v<M, float>) {
        (void)src;
        simd::DenseOps<D, M>::axpy(simd::Impl::kReference, w, x, n, c, qx,
                                   qm, biased_block<D, M>());
    } else if constexpr (std::is_same_v<D, float>) {
        const float cf = c / qm;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t delta = simd::ref::quantize_delta(
                cf, x[i], src.next_unit_float());
            if constexpr (std::is_same_v<M, std::int8_t>)
                w[i] = static_cast<M>(simd::ref::saturate_model8(
                    w[i] + simd::saturate_i16(delta)));
            else
                w[i] = static_cast<M>(simd::ref::saturate_model16(
                    w[i] + simd::saturate_i16(delta)));
        }
    } else {
        const auto cs = pair_scalar<D, M>(c * qx / qm);
        const std::uint32_t mask = (1u << cs.shift) - 1u;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t dither = src.next_word() & mask;
            if constexpr (std::is_same_v<M, std::int8_t>)
                w[i] = simd::ref::update_m8(w[i], x[i], cs, dither);
            else
                w[i] = simd::ref::update_m16(w[i], x[i], cs, dither);
        }
    }
}

/// Per-worker rounding state: the substrate's §5.2 shared-randomness
/// block (lowp::SharedRandom) mirrored into the SIMD kernels' DitherBlock
/// layout, plus the per-write sources.
struct WorkerRounding
{
    WorkerRounding(const TrainerConfig& cfg, std::size_t tid)
        : strategy(cfg.rounding),
          shared(lowp::SharedRandom::worker_seed(cfg.seed, tid),
                 cfg.shared_refresh_iters),
          mersenne(static_cast<std::uint32_t>(cfg.seed + 77 * tid + 1)),
          xorshift(static_cast<std::uint32_t>(cfg.seed + 131 * tid + 7))
    {
        sync_block();
    }

    /// Called once per AXPY in shared mode.
    void
    tick()
    {
        if (shared.tick()) sync_block();
    }

    /// Mirrors the current shared 256-bit block into the kernel view.
    void
    sync_block()
    {
        std::memcpy(block.bytes, shared.words(), sizeof(block.bytes));
    }

    RoundingStrategy strategy;
    lowp::SharedRandom shared;
    simd::DitherBlock block{};
    rng::MersenneSource mersenne;
    rng::XorshiftSource xorshift;
};

} // namespace detail

/// Dense Buckwild! engine over DenseData<D> with an M-typed model.
template <typename D, typename M>
class DenseEngine
{
  public:
    DenseEngine(const dataset::DenseData<D>& data, const TrainerConfig& cfg)
        : data_(data), cfg_(cfg), model_(data.cols()),
          gradient_bits_(cfg.signature.gradient.has_value() &&
                                 !cfg.signature.gradient->is_float
                             ? cfg.signature.gradient->bits
                             : 32)
    {
        if (cfg.threads == 0) fatal("threads must be >= 1");
        if (cfg.batch_size == 0) fatal("batch_size must be >= 1");
        if (gradient_bits_ != 32 && gradient_bits_ < 2)
            fatal("gradient precision must be >= 2 bits");
    }

    /// Runs the configured number of epochs and reports metrics.
    TrainingMetrics
    train()
    {
        TrainingMetrics metrics;
        metrics.epochs = cfg_.epochs;
        float eta = cfg_.step_size;
        for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
            if (cfg_.shuffle) reshuffle(epoch);
            BUCKWILD_OBS_SPAN("core", "sgd.epoch");
            Stopwatch watch;
            run_epoch(eta);
            const double epoch_seconds = watch.seconds();
            metrics.train_seconds += epoch_seconds;
            // Cumulative GNPS inputs for the live conformance watchdog.
            BUCKWILD_OBS_GAUGE_ADD("train.numbers",
                                   static_cast<double>(data_.rows()) *
                                       static_cast<double>(data_.cols()));
            BUCKWILD_OBS_GAUGE_ADD("train.seconds", epoch_seconds);
            eta *= cfg_.step_decay;
            if (cfg_.record_loss_trace)
                metrics.loss_trace.push_back(average_loss());
        }
        metrics.numbers_processed =
            static_cast<double>(cfg_.epochs) *
            static_cast<double>(data_.rows()) *
            static_cast<double>(data_.cols());
        metrics.final_loss = average_loss();
        metrics.accuracy = accuracy();
        return metrics;
    }

    /// Average training loss under the current model.
    double
    average_loss() const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < data_.rows(); ++i)
            total += loss_value(cfg_.loss, margin(i), data_.label(i));
        return total / static_cast<double>(data_.rows());
    }

    /// Training accuracy under the current model.
    double
    accuracy() const
    {
        std::size_t correct = 0;
        for (std::size_t i = 0; i < data_.rows(); ++i)
            if (loss_correct(cfg_.loss, margin(i), data_.label(i)))
                ++correct;
        return static_cast<double>(correct) /
               static_cast<double>(data_.rows());
    }

    /// Margin w.x of training example i (real units).
    float
    margin(std::size_t i) const
    {
        return simd::DenseOps<D, M>::dot(cfg_.impl, data_.row(i),
                                         model_.data(), data_.cols(),
                                         data_.quantum(),
                                         lowp::rep_default_quantum<M>());
    }

    /// The model dequantized to floats.
    std::vector<float>
    model_floats() const
    {
        std::vector<float> out(model_.size());
        const float qm = lowp::rep_default_quantum<M>();
        for (std::size_t k = 0; k < model_.size(); ++k)
            out[k] = static_cast<float>(model_[k]) * qm;
        return out;
    }

  private:
    void
    run_epoch(float eta)
    {
        run_parallel(cfg_.threads, [this, eta](std::size_t tid) {
            worker(tid, eta);
        });
    }

    /// Fisher-Yates permutation of the example order, fresh per epoch.
    void
    reshuffle(std::size_t epoch)
    {
        if (order_.empty()) {
            order_.resize(data_.rows());
            for (std::size_t i = 0; i < order_.size(); ++i)
                order_[i] = static_cast<std::uint32_t>(i);
        }
        rng::Xorshift128Plus gen(cfg_.seed ^ (0x9E3779B9ull * (epoch + 1)));
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[gen() % i]);
    }

    /// The example visited at logical position i this epoch.
    std::size_t
    example_at(std::size_t i) const
    {
        return cfg_.shuffle ? order_[i] : i;
    }

    /// Chooses the dither block for the next fixed-model AXPY.
    const simd::DitherBlock&
    axpy_block(detail::WorkerRounding& rounding)
    {
        if (rounding.strategy == RoundingStrategy::kBiased)
            return detail::biased_block<D, M>();
        rounding.tick();
        return rounding.block;
    }

    void
    worker(std::size_t tid, float eta)
    {
        detail::WorkerRounding rounding(cfg_, tid);
        const std::size_t n = data_.cols();
        const float qx = data_.quantum();
        const float qm = lowp::rep_default_quantum<M>();
        M* w = model_.data();

        AlignedBuffer<float> scratch;
        if (cfg_.batch_size > 1) scratch.reset(n);

        std::size_t in_batch = 0;
        for (std::size_t pos = tid; pos < data_.rows(); pos += cfg_.threads) {
            const std::size_t i = example_at(pos);
            const D* x = data_.row(i);
            float z;
            if (cfg_.batch_size == 1) {
                z = simd::DenseOps<D, M>::dot(cfg_.impl, x, w, n, qx, qm);
            } else {
                // Mini-batch gradients are computed against the model as
                // of the batch start (plus any concurrent updates — this
                // is still Hogwild!).
                z = simd::DenseOps<D, M>::dot(cfg_.impl, x, w, n, qx, qm);
            }
            // G-term: low-precision intermediates (margin + coefficient).
            z = detail::quantize_intermediate(z, gradient_bits_, 16.0f);
            float g =
                loss_gradient_coefficient(cfg_.loss, z, data_.label(i));
            g = detail::quantize_intermediate(g, gradient_bits_, 2.0f);
            const float c = -eta * g;

            if (cfg_.batch_size == 1) {
                if (c != 0.0f) apply_direct(w, x, n, c, qx, qm, rounding);
            } else {
                if (c != 0.0f)
                    simd::DenseOps<D, float>::axpy(
                        cfg_.impl, scratch.data(), x, n, c, qx, 1.0f,
                        detail::biased_block<D, float>());
                if (++in_batch == cfg_.batch_size) {
                    apply_scratch(w, scratch, n, qm, rounding);
                    in_batch = 0;
                }
            }
        }
        if (in_batch > 0) apply_scratch(w, scratch, n, qm, rounding);
    }

    /// Single-example model update (batch_size == 1 path).
    void
    apply_direct(M* w, const D* x, std::size_t n, float c, float qx,
                 float qm, detail::WorkerRounding& rounding)
    {
        switch (rounding.strategy) {
          case RoundingStrategy::kMersennePerWrite:
            detail::axpy_per_write<D, M>(w, x, n, c, qx, qm,
                                         rounding.mersenne);
            return;
          case RoundingStrategy::kXorshiftPerWrite:
            detail::axpy_per_write<D, M>(w, x, n, c, qx, qm,
                                         rounding.xorshift);
            return;
          default:
            simd::DenseOps<D, M>::axpy(cfg_.impl, w, x, n, c, qx, qm,
                                       axpy_block(rounding));
        }
    }

    /// Applies (and clears) the mini-batch scratch gradient to the model.
    void
    apply_scratch(M* w, AlignedBuffer<float>& scratch, std::size_t n,
                  float qm, detail::WorkerRounding& rounding)
    {
        switch (rounding.strategy) {
          case RoundingStrategy::kMersennePerWrite:
            detail::axpy_per_write<float, M>(w, scratch.data(), n, 1.0f,
                                             1.0f, qm, rounding.mersenne);
            break;
          case RoundingStrategy::kXorshiftPerWrite:
            detail::axpy_per_write<float, M>(w, scratch.data(), n, 1.0f,
                                             1.0f, qm, rounding.xorshift);
            break;
          default:
            if (rounding.strategy == RoundingStrategy::kBiased) {
                simd::DenseOps<float, M>::axpy(
                    cfg_.impl, w, scratch.data(), n, 1.0f, 1.0f, qm,
                    detail::biased_block<float, M>());
            } else {
                rounding.tick();
                simd::DenseOps<float, M>::axpy(cfg_.impl, w, scratch.data(),
                                               n, 1.0f, 1.0f, qm,
                                               rounding.block);
            }
        }
        scratch.clear();
    }

    const dataset::DenseData<D>& data_;
    TrainerConfig cfg_;
    AlignedBuffer<M> model_;
    std::vector<std::uint32_t> order_;
    int gradient_bits_;
};

/// Sparse Buckwild! engine over SparseData<V, I> with an M-typed model.
template <typename V, typename I, typename M>
class SparseEngine
{
  public:
    SparseEngine(const dataset::SparseData<V, I>& data,
                 const TrainerConfig& cfg)
        : data_(data), cfg_(cfg), model_(data.dim())
    {
        if (cfg.threads == 0) fatal("threads must be >= 1");
        if (cfg.batch_size != 1)
            fatal("the sparse engine supports batch_size == 1 only "
                  "(mini-batching is a dense-model optimization, §5.4)");
    }

    TrainingMetrics
    train()
    {
        TrainingMetrics metrics;
        metrics.epochs = cfg_.epochs;
        float eta = cfg_.step_size;
        for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
            if (cfg_.shuffle) reshuffle(epoch);
            BUCKWILD_OBS_SPAN("core", "sgd.epoch");
            Stopwatch watch;
            run_parallel(cfg_.threads, [this, eta](std::size_t tid) {
                worker(tid, eta);
            });
            const double epoch_seconds = watch.seconds();
            metrics.train_seconds += epoch_seconds;
            // Cumulative GNPS inputs for the live conformance watchdog
            // (sparse: a number is a stored nonzero).
            BUCKWILD_OBS_GAUGE_ADD(
                "train.numbers", static_cast<double>(data_.stored_nnz()));
            BUCKWILD_OBS_GAUGE_ADD("train.seconds", epoch_seconds);
            eta *= cfg_.step_decay;
            if (cfg_.record_loss_trace)
                metrics.loss_trace.push_back(average_loss());
        }
        metrics.numbers_processed =
            static_cast<double>(cfg_.epochs) *
            static_cast<double>(data_.stored_nnz());
        metrics.final_loss = average_loss();
        metrics.accuracy = accuracy();
        return metrics;
    }

    double
    average_loss() const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < data_.rows(); ++i)
            total += loss_value(cfg_.loss, margin(i), data_.label(i));
        return total / static_cast<double>(data_.rows());
    }

    double
    accuracy() const
    {
        std::size_t correct = 0;
        for (std::size_t i = 0; i < data_.rows(); ++i)
            if (loss_correct(cfg_.loss, margin(i), data_.label(i)))
                ++correct;
        return static_cast<double>(correct) /
               static_cast<double>(data_.rows());
    }

    float
    margin(std::size_t i) const
    {
        return Ops::dot(cfg_.impl, data_.row_values(i),
                        data_.row_indices(i), data_.row_nnz(i),
                        model_.data(), dot_scale(), data_.index_mode());
    }

    std::vector<float>
    model_floats() const
    {
        std::vector<float> out(model_.size());
        const float qm = lowp::rep_default_quantum<M>();
        for (std::size_t k = 0; k < model_.size(); ++k)
            out[k] = static_cast<float>(model_[k]) * qm;
        return out;
    }

  private:
    using Ops = simd::SparseOps<I, V, M>;

    /// dot() scale: product of value and model quanta (either may be 1).
    float
    dot_scale() const
    {
        return data_.quantum() * lowp::rep_default_quantum<M>();
    }

    void
    worker(std::size_t tid, float eta)
    {
        detail::WorkerRounding rounding(cfg_, tid);
        const float qv = data_.quantum();
        const float qm = lowp::rep_default_quantum<M>();
        M* w = model_.data();

        for (std::size_t pos = tid; pos < data_.rows();
             pos += cfg_.threads) {
            const std::size_t i =
                cfg_.shuffle ? order_[pos] : pos;
            const float z = margin(i);
            const float g =
                loss_gradient_coefficient(cfg_.loss, z, data_.label(i));
            const float c = -eta * g;
            if (c == 0.0f) continue;

            // Fixed-value scale in model quanta per raw value unit, and
            // the float-value coefficient for float/float-model paths.
            simd::FixedScalar cs{0, simd::kShiftD8M8};
            if constexpr (!std::is_same_v<M, float> &&
                          !std::is_same_v<V, float>)
                cs = detail::pair_scalar<V, M>(c * qv / qm);
            float cf;
            if constexpr (std::is_same_v<M, float>)
                cf = c * qv; // w += cf * raw value
            else
                cf = c / qm; // used when V is float

            const simd::DitherBlock& block =
                (rounding.strategy == RoundingStrategy::kBiased)
                    ? detail::biased_block<V, M>()
                    : (rounding.tick(), rounding.block);
            Ops::axpy(cfg_.impl, w, data_.row_values(i),
                      data_.row_indices(i), data_.row_nnz(i), cs, cf, block,
                      data_.index_mode());
        }
    }

    /// Fisher-Yates permutation of the example order, fresh per epoch.
    void
    reshuffle(std::size_t epoch)
    {
        if (order_.empty()) {
            order_.resize(data_.rows());
            for (std::size_t i = 0; i < order_.size(); ++i)
                order_[i] = static_cast<std::uint32_t>(i);
        }
        rng::Xorshift128Plus gen(cfg_.seed ^ (0x9E3779B9ull * (epoch + 1)));
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[gen() % i]);
    }

    const dataset::SparseData<V, I>& data_;
    TrainerConfig cfg_;
    AlignedBuffer<M> model_;
    std::vector<std::uint32_t> order_;
};

} // namespace buckwild::core

#endif // BUCKWILD_CORE_ENGINE_H
