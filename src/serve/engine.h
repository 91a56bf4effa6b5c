/**
 * @file
 * InferenceEngine — scores feature vectors against a ServingModel.
 *
 * Inference is the read half of the paper's dot-and-AXPY SGD step: just
 * the dot. The engine routes it through the same simd::DenseOps dispatch
 * the trainer uses (reference / naive / AVX2 / AVX-512), instantiated at
 * the (float data, Ms-rep model) pairs — a request's features stay float,
 * the model side is whatever the serving precision chose, so Ms8 scoring
 * runs the D-float/M-int8 kernels and is memory-bandwidth-bound on the
 * model stream exactly as §3 predicts. Sparse requests go through
 * simd::SparseOps at the same pairs, with absolute 32-bit indices.
 *
 * The margin z = w.x is then pushed through the loss's link function:
 * logistic → sigmoid(z) (probability of the +1 class), squared → z (the
 * regression output), hinge → z (the SVM margin). The predicted ±1 label
 * is the sign of the margin.
 */
#ifndef BUCKWILD_SERVE_ENGINE_H
#define BUCKWILD_SERVE_ENGINE_H

#include <cstddef>
#include <cstdint>

#include "serve/model_registry.h"
#include "simd/ops.h"
#include "simd/sparse_ops.h"

namespace buckwild::serve {

/// The answer to one scoring request.
struct ScoreResult
{
    float margin = 0.0f;        ///< z = w.x
    float score = 0.0f;         ///< link(z): probability / regression value
    float label = 0.0f;         ///< predicted class in {-1, +1}
    std::uint64_t model_version = 0;
};

/// Stateless scorer; all model state lives in the snapshot passed in, so
/// one engine is safely shared by every worker thread.
class InferenceEngine
{
  public:
    explicit InferenceEngine(simd::Impl impl = simd::best_impl())
        : impl_(impl)
    {
        // Requests are scored under SLO deadlines; pay the one-time
        // kernel-registry resolution at construction instead.
        simd::warm_dense_kernels();
        simd::warm_sparse_kernels();
    }

    simd::Impl impl() const { return impl_; }

    /**
     * Scores a dense feature vector of length n against `model`.
     * @throws std::runtime_error when n != model.dim().
     */
    ScoreResult score_dense(const ServingModel& model, const float* x,
                            std::size_t n) const;

    /**
     * Scores a sparse request given as (coordinate, value) streams of
     * length nnz, coordinates strictly ascending.
     * @throws std::runtime_error on an out-of-range coordinate.
     */
    ScoreResult score_sparse(const ServingModel& model,
                             const std::uint32_t* index, const float* value,
                             std::size_t nnz) const;

    /// The link function applied to a margin under `loss`.
    static float link(core::Loss loss, float z);

  private:
    simd::Impl impl_;
};

} // namespace buckwild::serve

#endif // BUCKWILD_SERVE_ENGINE_H
