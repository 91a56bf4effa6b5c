/**
 * @file
 * Trainer configuration: every knob of the DMGC trade-off space plus the
 * software-optimization switches of §5.
 */
#ifndef BUCKWILD_CORE_CONFIG_H
#define BUCKWILD_CORE_CONFIG_H

#include <cstddef>
#include <cstdint>

#include "core/loss.h"
#include "dmgc/signature.h"
#include "simd/ops.h"

namespace buckwild::core {

/// How the unbiased-rounding randomness is produced (§5.2 / Fig 5).
enum class RoundingStrategy {
    kBiased,           ///< nearest rounding, no randomness
    kMersennePerWrite, ///< fresh Mersenne-twister draw per model write
    kXorshiftPerWrite, ///< fresh scalar XORSHIFT draw per model write
    kSharedXorshift,   ///< one vectorized draw per AXPY, shared (default)
};

/// "biased" / "mersenne" / "xorshift" / "shared".
const char* to_string(RoundingStrategy strategy);

/// Full trainer configuration.
struct TrainerConfig
{
    /// The DMGC signature: selects dataset/model precisions and sparsity.
    dmgc::Signature signature = dmgc::Signature::dense_fixed(8, 8);

    Loss loss = Loss::kLogistic;

    /// Kernel implementation (§5.1). kAvx2 is the paper's recommendation.
    simd::Impl impl = simd::best_impl();

    /// Rounding for model writes (§5.2).
    RoundingStrategy rounding = RoundingStrategy::kSharedXorshift;

    /// Gradient (G-term) precision: when the signature carries a fixed
    /// G term, intermediate values — the margin z and the gradient
    /// coefficient — are quantized to that many bits before use,
    /// emulating low-precision intermediate arithmetic (Courbariaux et
    /// al.'s G10, Savich & Moussa's G18). Full-precision signatures leave
    /// intermediates untouched.
    /// (Derived from `signature.gradient`; no separate knob.)
    /// Iterations between fresh shared-randomness draws (1 = every AXPY).
    std::size_t shared_refresh_iters = 1;

    /// Hogwild! worker threads (1 = sequential SGD).
    std::size_t threads = 1;

    /// Mini-batch size B (§5.4); 1 = plain SGD.
    std::size_t batch_size = 1;

    /// Visit examples in a fresh pseudorandom order each epoch (the
    /// standard SGD practice; workers still partition the permutation).
    bool shuffle = false;

    std::size_t epochs = 10;
    float step_size = 0.2f;
    /// Multiplicative per-epoch step decay (1.0 = constant step).
    float step_decay = 0.95f;

    std::uint64_t seed = 0x5EED;

    /// Record the average training loss after every epoch (costs one
    /// evaluation pass per epoch).
    bool record_loss_trace = true;
};

} // namespace buckwild::core

#endif // BUCKWILD_CORE_CONFIG_H
