/**
 * @file
 * The rounding engine — one implementation of biased and unbiased (Eq. 4)
 * rounding for every quantization site in the tree.
 *
 * Two numeric domains exist, preserved bit-for-bit from the code this
 * substrate replaced:
 *
 *  - the *raw* domain (fixed:: semantics): values are scaled in double
 *    precision and rounded to a raw integer — biased rounding is
 *    std::lround (ties away from zero). Used by dataset D-quantization,
 *    serve publish-time Ms weights, and the fixed:: array quantizers.
 *  - the *snap* domain (nn / G-term semantics): values stay in float
 *    storage, constrained to the grid — biased rounding is nearbyintf
 *    (ties to even), all arithmetic in float.
 *
 * Array entry points dispatch through the process-wide KernelLibrary
 * (simd/registry.h): each op registers its scalar reference and — when
 * the build carries them — the hand-vectorized AVX2 kernels (§5.2
 * applied beyond the SGD inner loop: the same vectorized-rounding idea
 * now covers the ps C-codec encode and the serve publish path). The
 * public entries cache the resolved function pointer behind a generation
 * check, so BUCKWILD_KERNEL_IMPL / force_impl() re-steer them without a
 * per-call registry lookup. `lowp::scalar::` always carries the scalar
 * reference implementations so tests can assert scalar/AVX2 bit-identity
 * independent of what the resolver picked.
 *
 * Shared randomness (§5.2): `quantize_shared()` rounds an array against
 * one 256-bit block of randomness (8 words, applied cyclically), the
 * "generate 256 fresh bits once, share them across the AXPY" strategy
 * generalized to array quantization. SharedRandom (shared_random.h)
 * produces and refreshes such blocks.
 */
#ifndef BUCKWILD_LOWP_ROUND_H
#define BUCKWILD_LOWP_ROUND_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "lowp/grid.h"
#include "rng/random_source.h"

namespace buckwild::lowp {

// ---------------------------------------------------------------------
// Raw domain (double math, fixed:: semantics)
// ---------------------------------------------------------------------

/// Saturates a raw value into the grid's representable range.
inline long
saturate_raw(long raw, const GridSpec& grid)
{
    if (raw < grid.raw_min) return grid.raw_min;
    if (raw > grid.raw_max) return grid.raw_max;
    return raw;
}

/// Nearest-neighbor ("biased") rounding of real `x` to raw grid units
/// (lround: ties away from zero).
inline long
round_biased_raw(double x, const GridSpec& grid)
{
    return saturate_raw(std::lround(x / grid.quantum), grid);
}

/// Unbiased (stochastic) rounding per Eq. (4): floor(x/q + u), u ~ U[0,1).
/// Saturation at the range ends reintroduces bias for out-of-range
/// inputs; in-range inputs are exactly unbiased.
inline long
round_unbiased_raw(double x, const GridSpec& grid, float u)
{
    const double scaled = x / grid.quantum + static_cast<double>(u);
    return saturate_raw(static_cast<long>(std::floor(scaled)), grid);
}

/// Real value of `raw` grid units.
inline double
dequantize_raw(long raw, const GridSpec& grid)
{
    return static_cast<double>(raw) * grid.quantum;
}

// ---------------------------------------------------------------------
// Snap domain (float math, nn / G-term semantics)
// ---------------------------------------------------------------------

/// Snaps `x` to the nearest grid point (nearbyintf: ties to even), value
/// kept in float storage.
inline float
snap_nearest(float x, const GridSpec& grid)
{
    const float q = grid.quantum_f();
    float raw = std::nearbyintf(x / q);
    const float hi = static_cast<float>(grid.raw_max);
    const float lo = static_cast<float>(grid.raw_min);
    if (raw > hi) raw = hi;
    if (raw < lo) raw = lo;
    return raw * q;
}

/// Stochastic grid snap per Eq. (4), float domain: floor(x/q + u).
inline float
snap_stochastic(float x, const GridSpec& grid, float u)
{
    const float q = grid.quantum_f();
    float raw = std::floor(x / q + u);
    const float hi = static_cast<float>(grid.raw_max);
    const float lo = static_cast<float>(grid.raw_min);
    if (raw > hi) raw = hi;
    if (raw < lo) raw = lo;
    return raw * q;
}

// ---------------------------------------------------------------------
// Array kernels (round.cpp; registry-dispatched, AVX2 when available)
// ---------------------------------------------------------------------

/// Idempotent registration of the lowp array kernels ("lowp.*" ops) into
/// the KernelLibrary. The public entries below call it themselves;
/// sweeps call it before enumerating the library.
void register_lowp_kernels();

/// True when the resolver currently routes the array kernels to a
/// vectorized variant (build has AVX2, host executes it, and no scalar
/// override is forced).
bool vectorized();

/// Biased float -> raw-rep array quantization (raw domain: lround
/// semantics, bit-identical to the scalar reference).
void quantize_biased(const float* in, std::int8_t* out, std::size_t n,
                     const GridSpec& grid);
void quantize_biased(const float* in, std::int16_t* out, std::size_t n,
                     const GridSpec& grid);

/// Per-write unbiased quantization: one fresh word from `source` per
/// element (the Mersenne / scalar-XORSHIFT strategies of Fig 5). Scalar
/// by construction — the word stream is sequential.
void quantize_unbiased(const float* in, std::int8_t* out, std::size_t n,
                       const GridSpec& grid, rng::RandomWordSource& source);
void quantize_unbiased(const float* in, std::int16_t* out, std::size_t n,
                       const GridSpec& grid, rng::RandomWordSource& source);

/// Shared-randomness unbiased quantization (§5.2): element i rounds with
/// unit dither from words[i % 8] — one 256-bit draw shared across the
/// array. Float domain (vectorizable); scalar and AVX2 are bit-identical.
void quantize_shared(const float* in, std::int8_t* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8]);
void quantize_shared(const float* in, std::int16_t* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8]);

/// Array dequantization: floats from raw reps.
void dequantize(const std::int8_t* in, float* out, std::size_t n,
                const GridSpec& grid);
void dequantize(const std::int16_t* in, float* out, std::size_t n,
                const GridSpec& grid);

// ---------------------------------------------------------------------
// Codec kernels (the ps C-term hot path)
// ---------------------------------------------------------------------

/// max |g[k]| (0 for empty input; NaN elements are ignored, matching
/// std::max semantics of the scalar loop it replaces).
float max_abs(const float* g, std::size_t n);

/// QSGD-style k-bit linear level rounding: level = nearbyintf(g/scale),
/// q = level * scale, residual = g - q. `levels` and `residual` may be
/// null; `q` must not. No saturation — callers guarantee |g| <= scale *
/// level_max (the per-message scale is fitted to max|g|).
void round_levels_i8(const float* g, std::size_t n, float scale,
                     std::int8_t* levels, float* q, float* residual);

/// Seide-style 1-bit sign quantization: q = sign(g) * scale (negative
/// for g < 0 and NaN, matching `!(g >= 0)`), residual = g - q, and one
/// sign bit per coordinate packed 8-per-byte into `payload` (bit set =
/// negative). `residual` and `payload` may be null; `payload`, when
/// given, must be zeroed by the caller.
void quantize_sign_1bit(const float* g, std::size_t n, float scale,
                        float* q, float* residual, std::uint8_t* payload);

/// QSGD level rounding over one norm bucket: Eq. (4) on the grid
/// GridSpec{1/s, 0, s} of normalized magnitudes. Per element, with
/// u = rng::to_unit_float(words[k]) and q = norm * (level * (1/s)):
///
///  - levels[k] = round_unbiased_raw(|g[k]| / norm, {1/s, 0, s}, u), the
///    ratio taken as 0 when !(norm > 0) (both divisions in double); a
///    NaN ratio (an infinite |g[k]| over an infinite norm) gives 0;
///  - bit k % 8 of signs[k / 8] = !(g[k] >= 0) (NaN counts negative);
///    all (n + 7) / 8 bytes are written, padding bits zero;
///  - residual[k] = g[k] - (negative ? -q : q) when `residual` is non-null.
///
/// `s` is in [1, 127]. Branch-free per element; the AVX2 variant is
/// bit-identical (IEEE division is correctly rounded in every lane).
void qsgd_round(const float* g, std::size_t n, float norm, int s,
                const std::uint32_t* words, std::uint8_t* levels,
                std::uint8_t* signs, float* residual);

/// The inverse of qsgd_round: out[k] = ±norm * (levels[k] * (1/s)),
/// negative where bit k % 8 of signs[k / 8] is set — bit-identical to
/// the value qsgd_round subtracted into the residual.
void qsgd_dequantize(const std::uint8_t* levels, const std::uint8_t* signs,
                     std::size_t n, float norm, int s, float* out);

/// Always-scalar reference implementations of every array kernel above,
/// for scalar-vs-AVX2 equivalence testing.
namespace scalar {

void quantize_biased(const float* in, std::int8_t* out, std::size_t n,
                     const GridSpec& grid);
void quantize_biased(const float* in, std::int16_t* out, std::size_t n,
                     const GridSpec& grid);
void quantize_shared(const float* in, std::int8_t* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8]);
void quantize_shared(const float* in, std::int16_t* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8]);
void dequantize(const std::int8_t* in, float* out, std::size_t n,
                const GridSpec& grid);
void dequantize(const std::int16_t* in, float* out, std::size_t n,
                const GridSpec& grid);
float max_abs(const float* g, std::size_t n);
void round_levels_i8(const float* g, std::size_t n, float scale,
                     std::int8_t* levels, float* q, float* residual);
void quantize_sign_1bit(const float* g, std::size_t n, float scale,
                        float* q, float* residual, std::uint8_t* payload);
void qsgd_round(const float* g, std::size_t n, float norm, int s,
                const std::uint32_t* words, std::uint8_t* levels,
                std::uint8_t* signs, float* residual);
void qsgd_dequantize(const std::uint8_t* levels, const std::uint8_t* signs,
                     std::size_t n, float norm, int s, float* out);

} // namespace scalar

} // namespace buckwild::lowp

#endif // BUCKWILD_LOWP_ROUND_H
