#include "serve/engine.h"

#include <cmath>

#include "util/logging.h"

namespace buckwild::serve {

namespace {

ScoreResult
finish(const ServingModel& model, float z)
{
    ScoreResult r;
    r.margin = z;
    r.score = InferenceEngine::link(model.loss(), z);
    r.label = z >= 0.0f ? 1.0f : -1.0f;
    r.model_version = model.version();
    return r;
}

} // namespace

float
InferenceEngine::link(core::Loss loss, float z)
{
    switch (loss) {
      case core::Loss::kLogistic:
        return 1.0f / (1.0f + std::exp(-z));
      case core::Loss::kSquared:
      case core::Loss::kHinge:
        return z;
    }
    panic("unreachable Loss");
}

ScoreResult
InferenceEngine::score_dense(const ServingModel& model, const float* x,
                             std::size_t n) const
{
    if (n != model.dim())
        fatal("request dimension " + std::to_string(n) +
              " does not match model dimension " +
              std::to_string(model.dim()));
    float z = 0.0f;
    switch (model.precision()) {
      case Precision::kInt8:
        z = simd::DenseOps<float, std::int8_t>::dot(
            impl_, x, model.weights_i8(), n, 1.0f, model.quantum());
        break;
      case Precision::kInt16:
        z = simd::DenseOps<float, std::int16_t>::dot(
            impl_, x, model.weights_i16(), n, 1.0f, model.quantum());
        break;
      case Precision::kFloat32:
        z = simd::DenseOps<float, float>::dot(impl_, x, model.weights_f32(),
                                              n, 1.0f, 1.0f);
        break;
    }
    return finish(model, z);
}

ScoreResult
InferenceEngine::score_sparse(const ServingModel& model,
                              const std::uint32_t* index, const float* value,
                              std::size_t nnz) const
{
    for (std::size_t j = 0; j < nnz; ++j)
        if (index[j] >= model.dim())
            fatal("sparse request coordinate " + std::to_string(index[j]) +
                  " out of range for model dimension " +
                  std::to_string(model.dim()));
    constexpr auto kAbsolute = simd::sparse::IndexMode::kAbsolute;
    float z = 0.0f;
    switch (model.precision()) {
      case Precision::kInt8:
        z = simd::SparseOps<std::uint32_t, float, std::int8_t>::dot(
            impl_, value, index, nnz, model.weights_i8(), model.quantum(),
            kAbsolute);
        break;
      case Precision::kInt16:
        z = simd::SparseOps<std::uint32_t, float, std::int16_t>::dot(
            impl_, value, index, nnz, model.weights_i16(), model.quantum(),
            kAbsolute);
        break;
      case Precision::kFloat32:
        z = simd::SparseOps<std::uint32_t>::dot(
            impl_, value, index, nnz, model.weights_f32(), 1.0f, kAbsolute);
        break;
    }
    return finish(model, z);
}

} // namespace buckwild::serve
