/**
 * @file
 * Array rounding kernels: scalar reference implementations plus the AVX2
 * fast paths (§5.2 vectorized rounding applied to every array-quantizing
 * call site, not just the SGD inner loop), registered as "lowp.*" ops in
 * the process-wide KernelLibrary. Public entries resolve once and cache
 * the function pointer behind a kernel_generation() check, so a
 * force_impl() (tests, BUCKWILD_KERNEL_IMPL) re-steers them while the
 * steady-state cost stays one indirect call.
 *
 * Bit-identity notes — the AVX2 paths must agree with the scalar
 * references bit-for-bit, which rests on four identities:
 *
 *  - `trunc(s + copysign(0.5, s)) == lround(s)` exactly, whenever the
 *    addition is exact. Every grid in the tree has a power-of-two
 *    quantum, so s = x / quantum is an exactly-scaled float (<= 24
 *    significand bits); adding 0.5 spans at most ~30 bits, well inside
 *    double's 53. (quantize_biased)
 *  - `_mm256_cvtps_epi32` rounds half-to-even under the default MXCSR
 *    rounding mode, exactly matching `nearbyintf` + int conversion.
 *    (round_levels_i8)
 *  - clamping in the wide float/double domain *before* the int
 *    conversion equals converting then saturating, because the clamp
 *    bounds are themselves exactly representable grid endpoints — and it
 *    avoids the 0x80000000 "integer indefinite" result on overflow.
 *  - IEEE division is correctly rounded in every lane, so
 *    `_mm256_div_pd` computes exactly the scalar double quotients, and a
 *    float multiply chain with the sign flipped by XOR is the scalar
 *    `-(a * b)`; GCC does not contract a multiply across the XOR into
 *    the residual's subtraction. (qsgd_round, qsgd_dequantize)
 *
 * NaN conventions follow the scalar code each kernel replaced:
 * `max_abs` ignores NaN elements (std::max(acc, fabs) keeps acc when fabs
 * is NaN — mirrored by `_mm256_max_ps(abs, acc)`, which returns the
 * second operand on unordered compare), `quantize_sign_1bit` and
 * `qsgd_round` treat NaN as negative (`!(g >= 0)` — mirrored by
 * `_CMP_NGE_UQ`), and `qsgd_round` maps a NaN ratio to level 0.
 */
#include "lowp/round.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "simd/cpu.h"
#include "simd/registry.h"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace buckwild::lowp {

const char*
to_string(Round mode)
{
    switch (mode) {
    case Round::kNearest: return "nearest";
    case Round::kStochastic: return "stochastic";
    }
    return "unknown";
}

namespace scalar {

template <typename Rep>
static void
quantize_biased_impl(const float* in, Rep* out, std::size_t n,
                     const GridSpec& grid)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<Rep>(
            round_biased_raw(static_cast<double>(in[i]), grid));
}

void
quantize_biased(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid)
{
    quantize_biased_impl(in, out, n, grid);
}

void
quantize_biased(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid)
{
    quantize_biased_impl(in, out, n, grid);
}

template <typename Rep>
static void
quantize_shared_impl(const float* in, Rep* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8])
{
    const float q = grid.quantum_f();
    const float hi = static_cast<float>(grid.raw_max);
    const float lo = static_cast<float>(grid.raw_min);
    float unit[8];
    for (int w = 0; w < 8; ++w)
        unit[w] = rng::to_unit_float(words[w]);
    for (std::size_t i = 0; i < n; ++i) {
        float raw = std::floor(in[i] / q + unit[i % 8]);
        if (raw > hi) raw = hi;
        if (raw < lo) raw = lo;
        out[i] = static_cast<Rep>(static_cast<int>(raw));
    }
}

void
quantize_shared(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    quantize_shared_impl(in, out, n, grid, words);
}

void
quantize_shared(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    quantize_shared_impl(in, out, n, grid, words);
}

template <typename Rep>
static void
dequantize_impl(const Rep* in, float* out, std::size_t n,
                const GridSpec& grid)
{
    const float q = grid.quantum_f();
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(in[i]) * q;
}

void
dequantize(const std::int8_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    dequantize_impl(in, out, n, grid);
}

void
dequantize(const std::int16_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    dequantize_impl(in, out, n, grid);
}

float
max_abs(const float* g, std::size_t n)
{
    float maxabs = 0.0f;
    for (std::size_t k = 0; k < n; ++k)
        maxabs = std::max(maxabs, std::fabs(g[k]));
    return maxabs;
}

void
round_levels_i8(const float* g, std::size_t n, float scale,
                std::int8_t* levels, float* q, float* residual)
{
    for (std::size_t k = 0; k < n; ++k) {
        const float level = std::nearbyintf(g[k] / scale);
        q[k] = level * scale;
        if (levels != nullptr)
            levels[k] = static_cast<std::int8_t>(level);
        if (residual != nullptr)
            residual[k] = g[k] - q[k];
    }
}

void
quantize_sign_1bit(const float* g, std::size_t n, float scale, float* q,
                   float* residual, std::uint8_t* payload)
{
    for (std::size_t k = 0; k < n; ++k) {
        const bool negative = !(g[k] >= 0.0f);
        q[k] = negative ? -scale : scale;
        if (payload != nullptr && negative)
            payload[k / 8] |= static_cast<std::uint8_t>(1u << (k % 8));
        if (residual != nullptr)
            residual[k] = g[k] - q[k];
    }
}

namespace {

/// One element of qsgd_round: the level and, when asked, the residual.
/// The sign bit is the caller's (it packs eight per byte). Shared by the
/// reference kernel and the AVX2 tail, so both round one way.
inline std::uint8_t
qsgd_round_one(float g, float norm, int s, std::uint32_t word,
               float* residual)
{
    const GridSpec grid{1.0 / static_cast<double>(s), 0, s};
    const double ratio = norm > 0.0f ? static_cast<double>(std::fabs(g)) /
                                           static_cast<double>(norm)
                                     : 0.0;
    // Ratios past 2 can only saturate at s, and a NaN ratio (an infinite
    // coordinate's) lands on 0, as the AVX2 clamp does: neither reaches
    // round_unbiased_raw's float-to-integer conversion, which has no
    // defined result for them.
    const long level =
        ratio <= 2.0
            ? round_unbiased_raw(ratio, grid, rng::to_unit_float(word))
        : ratio > 2.0 ? s
                      : 0;
    if (residual != nullptr) {
        const float point = norm * (static_cast<float>(level) *
                                    (1.0f / static_cast<float>(s)));
        *residual = g - (!(g >= 0.0f) ? -point : point);
    }
    return static_cast<std::uint8_t>(level);
}

inline float
qsgd_point_one(std::uint8_t level, bool negative, float norm, int s)
{
    const float point = norm * (static_cast<float>(level) *
                                (1.0f / static_cast<float>(s)));
    return negative ? -point : point;
}

} // namespace

void
qsgd_round(const float* g, std::size_t n, float norm, int s,
           const std::uint32_t* words, std::uint8_t* levels,
           std::uint8_t* signs, float* residual)
{
    std::fill(signs, signs + (n + 7) / 8, std::uint8_t{0});
    for (std::size_t k = 0; k < n; ++k) {
        signs[k / 8] |= static_cast<std::uint8_t>(
            static_cast<unsigned>(!(g[k] >= 0.0f)) << (k % 8));
        levels[k] = qsgd_round_one(g[k], norm, s, words[k],
                                   residual != nullptr ? residual + k
                                                       : nullptr);
    }
}

void
qsgd_dequantize(const std::uint8_t* levels, const std::uint8_t* signs,
                std::size_t n, float norm, int s, float* out)
{
    for (std::size_t k = 0; k < n; ++k)
        out[k] = qsgd_point_one(levels[k], (signs[k / 8] >> (k % 8)) & 1u,
                                norm, s);
}

} // namespace scalar

namespace {

template <typename Rep>
void
quantize_unbiased_impl(const float* in, Rep* out, std::size_t n,
                       const GridSpec& grid, rng::RandomWordSource& source)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<Rep>(round_unbiased_raw(
            static_cast<double>(in[i]), grid, source.next_unit_float()));
}

} // namespace

void
quantize_unbiased(const float* in, std::int8_t* out, std::size_t n,
                  const GridSpec& grid, rng::RandomWordSource& source)
{
    quantize_unbiased_impl(in, out, n, grid, source);
}

void
quantize_unbiased(const float* in, std::int16_t* out, std::size_t n,
                  const GridSpec& grid, rng::RandomWordSource& source)
{
    quantize_unbiased_impl(in, out, n, grid, source);
}

// ---------------------------------------------------------------------
// AVX2 variants (compiled only when the build carries AVX2 codegen)
// ---------------------------------------------------------------------

#ifdef __AVX2__

namespace avx2 {

namespace {

/// lround of 4 doubles already divided by the quantum: add copysign(0.5)
/// and truncate, clamping in the double domain first.
inline __m128i
lround4_clamped(__m256d s, __m256d lo, __m256d hi)
{
    const __m256d signmask = _mm256_set1_pd(-0.0);
    const __m256d half = _mm256_or_pd(_mm256_and_pd(s, signmask),
                                      _mm256_set1_pd(0.5));
    __m256d t = _mm256_add_pd(s, half);
    t = _mm256_min_pd(_mm256_max_pd(t, lo), hi);
    return _mm256_cvttpd_epi32(t);
}

inline void
store4_i16(std::int16_t* out, __m128i v32)
{
    const __m128i v16 = _mm_packs_epi32(v32, v32);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), v16);
}

inline void
store4_i8(std::int8_t* out, __m128i v32)
{
    const __m128i v16 = _mm_packs_epi32(v32, v32);
    const __m128i v8 = _mm_packs_epi16(v16, v16);
    const int packed = _mm_cvtsi128_si32(v8);
    std::memcpy(out, &packed, 4);
}

/// 8 int32 lanes -> 8 int16 values, preserving element order.
inline __m128i
pack8_i16(__m256i v32)
{
    const __m128i lo = _mm256_castsi256_si128(v32);
    const __m128i hi = _mm256_extracti128_si256(v32, 1);
    return _mm_packs_epi32(lo, hi);
}

template <typename Rep>
void
quantize_biased_impl(const float* in, Rep* out, std::size_t n,
                     const GridSpec& grid)
{
    const __m256d qinv = _mm256_set1_pd(1.0 / grid.quantum);
    const __m256d lo = _mm256_set1_pd(static_cast<double>(grid.raw_min));
    const __m256d hi = _mm256_set1_pd(static_cast<double>(grid.raw_max));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x =
            _mm256_cvtps_pd(_mm_loadu_ps(in + i));
        const __m128i raw = lround4_clamped(_mm256_mul_pd(x, qinv), lo, hi);
        if constexpr (sizeof(Rep) == 1)
            store4_i8(out + i, raw);
        else
            store4_i16(out + i, raw);
    }
    for (; i < n; ++i)
        out[i] = static_cast<Rep>(
            round_biased_raw(static_cast<double>(in[i]), grid));
}

template <typename Rep>
void
quantize_shared_impl(const float* in, Rep* out, std::size_t n,
                     const GridSpec& grid, const std::uint32_t words[8])
{
    alignas(32) float unit[8];
    for (int w = 0; w < 8; ++w)
        unit[w] = rng::to_unit_float(words[w]);
    const __m256 u = _mm256_load_ps(unit);
    const __m256 qinv = _mm256_set1_ps(1.0f / grid.quantum_f());
    const __m256 lo = _mm256_set1_ps(static_cast<float>(grid.raw_min));
    const __m256 hi = _mm256_set1_ps(static_cast<float>(grid.raw_max));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(in + i);
        __m256 raw = _mm256_floor_ps(_mm256_add_ps(_mm256_mul_ps(x, qinv), u));
        raw = _mm256_min_ps(_mm256_max_ps(raw, lo), hi);
        const __m128i v16 = pack8_i16(_mm256_cvttps_epi32(raw));
        if constexpr (sizeof(Rep) == 1)
            _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                             _mm_packs_epi16(v16, v16));
        else
            _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), v16);
    }
    // tail keeps the dither phase: element k uses words[k % 8]
    const float q = grid.quantum_f();
    const float hif = static_cast<float>(grid.raw_max);
    const float lof = static_cast<float>(grid.raw_min);
    for (; i < n; ++i) {
        float raw = std::floor(in[i] / q + unit[i % 8]);
        if (raw > hif) raw = hif;
        if (raw < lof) raw = lof;
        out[i] = static_cast<Rep>(static_cast<int>(raw));
    }
}

} // namespace

void
quantize_biased(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid)
{
    quantize_biased_impl(in, out, n, grid);
}

void
quantize_biased(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid)
{
    quantize_biased_impl(in, out, n, grid);
}

void
quantize_shared(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    quantize_shared_impl(in, out, n, grid, words);
}

void
quantize_shared(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    quantize_shared_impl(in, out, n, grid, words);
}

void
dequantize(const std::int8_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    const __m256 q = _mm256_set1_ps(grid.quantum_f());
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i raw8 =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in + i));
        const __m256 x = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw8));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(x, q));
    }
    for (; i < n; ++i)
        out[i] = static_cast<float>(in[i]) * grid.quantum_f();
}

void
dequantize(const std::int16_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    const __m256 q = _mm256_set1_ps(grid.quantum_f());
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i raw16 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
        const __m256 x = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(raw16));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(x, q));
    }
    for (; i < n; ++i)
        out[i] = static_cast<float>(in[i]) * grid.quantum_f();
}

float
max_abs(const float* g, std::size_t n)
{
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 a = _mm256_and_ps(_mm256_loadu_ps(g + i), absmask);
        // operand order keeps std::max's ignore-NaN behaviour: max_ps
        // returns the second operand (acc) on unordered compare
        acc = _mm256_max_ps(a, acc);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    float maxabs = 0.0f;
    for (float lane : lanes)
        maxabs = std::max(maxabs, lane);
    for (; i < n; ++i)
        maxabs = std::max(maxabs, std::fabs(g[i]));
    return maxabs;
}

void
round_levels_i8(const float* g, std::size_t n, float scale,
                std::int8_t* levels, float* q, float* residual)
{
    // The reference loop (div / nearbyintf / cast / sub) is exactly the
    // shape GCC auto-vectorizes under -mavx2 — it compiles to a 32-wide
    // vdivps/vroundps/vpackuswb pipeline that a hand-written 16-wide
    // kernel measurably loses to (see bench_lowp_round). Reuse it rather
    // than re-deriving the compiler's schedule by hand; the hand kernels
    // above cover the loops auto-vectorization cannot handle (the max_abs
    // reduction, the branchy 1-bit codec, the double-domain biased path).
    scalar::round_levels_i8(g, n, scale, levels, q, residual);
}

void
quantize_sign_1bit(const float* g, std::size_t n, float scale, float* q,
                   float* residual, std::uint8_t* payload)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 pos = _mm256_set1_ps(scale);
    const __m256 neg = _mm256_set1_ps(-scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(g + i);
        // !(g >= 0): NGE unordered-quiet, so NaN counts as negative
        const __m256 nge = _mm256_cmp_ps(x, zero, _CMP_NGE_UQ);
        const __m256 qv = _mm256_blendv_ps(pos, neg, nge);
        _mm256_storeu_ps(q + i, qv);
        if (payload != nullptr)
            payload[i / 8] |=
                static_cast<std::uint8_t>(_mm256_movemask_ps(nge));
        if (residual != nullptr)
            _mm256_storeu_ps(residual + i, _mm256_sub_ps(x, qv));
    }
    for (; i < n; ++i) {
        const bool negative = !(g[i] >= 0.0f);
        q[i] = negative ? -scale : scale;
        if (payload != nullptr && negative)
            payload[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        if (residual != nullptr)
            residual[i] = g[i] - q[i];
    }
}

void
qsgd_round(const float* g, std::size_t n, float norm, int s,
           const std::uint32_t* words, std::uint8_t* levels,
           std::uint8_t* signs, float* residual)
{
    const bool live = norm > 0.0f;
    const __m256d normd = _mm256_set1_pd(static_cast<double>(norm));
    const __m256d quantum = _mm256_set1_pd(1.0 / static_cast<double>(s));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d top = _mm256_set1_pd(static_cast<double>(s));
    const __m256d unit = _mm256_set1_pd(0x1.0p-24);
    const __m256 signbit = _mm256_set1_ps(-0.0f);
    const __m256 normf = _mm256_set1_ps(norm);
    const __m256 inv_s = _mm256_set1_ps(1.0f / static_cast<float>(s));

    // floor(|g| / norm / (1/s) + u), clamped to [0, s] in the double
    // domain: max first, so a NaN ratio lands on 0 as in the reference.
    // The dither u = (word >> 8) * 2^-24 is exact in double, as
    // rng::to_unit_float's float is.
    const auto levels4 = [&](__m128 mag, __m128i word24) {
        const __m256d ratio =
            live ? _mm256_div_pd(_mm256_cvtps_pd(mag), normd) : zero;
        const __m256d u = _mm256_mul_pd(_mm256_cvtepi32_pd(word24), unit);
        __m256d t = _mm256_floor_pd(
            _mm256_add_pd(_mm256_div_pd(ratio, quantum), u));
        t = _mm256_min_pd(_mm256_max_pd(t, zero), top);
        return _mm256_cvttpd_epi32(t);
    };

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(g + i);
        // !(g >= 0): NGE unordered-quiet, so NaN counts as negative
        const __m256 neg =
            _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NGE_UQ);
        signs[i / 8] = static_cast<std::uint8_t>(_mm256_movemask_ps(neg));
        const __m256 mag = _mm256_andnot_ps(signbit, x);
        const __m256i word24 = _mm256_srli_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i)),
            8);
        const __m128i lo = levels4(_mm256_castps256_ps128(mag),
                                   _mm256_castsi256_si128(word24));
        const __m128i hi = levels4(_mm256_extractf128_ps(mag, 1),
                                   _mm256_extracti128_si256(word24, 1));
        const __m128i level16 = _mm_packs_epi32(lo, hi);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(levels + i),
                         _mm_packus_epi16(level16, level16));
        if (residual != nullptr) {
            const __m256 level =
                _mm256_cvtepi32_ps(_mm256_set_m128i(hi, lo));
            const __m256 point =
                _mm256_mul_ps(normf, _mm256_mul_ps(level, inv_s));
            // The sign flip is a bitwise op, which also keeps the
            // compiler from fusing the product into the subtraction.
            const __m256 q =
                _mm256_xor_ps(point, _mm256_and_ps(neg, signbit));
            _mm256_storeu_ps(residual + i, _mm256_sub_ps(x, q));
        }
    }
    if (i < n) {
        signs[i / 8] = 0;
        for (; i < n; ++i) {
            signs[i / 8] |= static_cast<std::uint8_t>(
                static_cast<unsigned>(!(g[i] >= 0.0f)) << (i % 8));
            levels[i] = scalar::qsgd_round_one(
                g[i], norm, s, words[i],
                residual != nullptr ? residual + i : nullptr);
        }
    }
}

void
qsgd_dequantize(const std::uint8_t* levels, const std::uint8_t* signs,
                std::size_t n, float norm, int s, float* out)
{
    const __m256 normf = _mm256_set1_ps(norm);
    const __m256 inv_s = _mm256_set1_ps(1.0f / static_cast<float>(s));
    // Lane j's sign bit shifted up to bit 31, the float sign position.
    const __m256i to_sign = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    const __m256i signbit = _mm256_set1_epi32(INT32_MIN);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 level = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(levels + i))));
        const __m256 point =
            _mm256_mul_ps(normf, _mm256_mul_ps(level, inv_s));
        const __m256i sign = _mm256_and_si256(
            _mm256_sllv_epi32(_mm256_set1_epi32(signs[i / 8]), to_sign),
            signbit);
        _mm256_storeu_ps(out + i,
                         _mm256_xor_ps(point, _mm256_castsi256_ps(sign)));
    }
    for (; i < n; ++i)
        out[i] = scalar::qsgd_point_one(levels[i],
                                        (signs[i / 8] >> (i % 8)) & 1u,
                                        norm, s);
}

} // namespace avx2

#endif // __AVX2__

// ---------------------------------------------------------------------
// Registry wiring
// ---------------------------------------------------------------------

namespace {

// Registered-signature aliases (the array parameter decays to a pointer).
using QuantizeI8Fn = void (*)(const float*, std::int8_t*, std::size_t,
                              const GridSpec&);
using QuantizeI16Fn = void (*)(const float*, std::int16_t*, std::size_t,
                               const GridSpec&);
using SharedI8Fn = void (*)(const float*, std::int8_t*, std::size_t,
                            const GridSpec&, const std::uint32_t*);
using SharedI16Fn = void (*)(const float*, std::int16_t*, std::size_t,
                             const GridSpec&, const std::uint32_t*);
using DequantizeI8Fn = void (*)(const std::int8_t*, float*, std::size_t,
                                const GridSpec&);
using DequantizeI16Fn = void (*)(const std::int16_t*, float*, std::size_t,
                                 const GridSpec&);
using MaxAbsFn = float (*)(const float*, std::size_t);
using RoundLevelsFn = void (*)(const float*, std::size_t, float,
                               std::int8_t*, float*, float*);
using Sign1BitFn = void (*)(const float*, std::size_t, float, float*,
                            float*, std::uint8_t*);
using QsgdRoundFn = void (*)(const float*, std::size_t, float, int,
                             const std::uint32_t*, std::uint8_t*,
                             std::uint8_t*, float*);
using QsgdDequantizeFn = void (*)(const std::uint8_t*, const std::uint8_t*,
                                  std::size_t, float, int, float*);

#ifdef __AVX2__
bool
lowp_avx2_ok()
{
    return simd::host_cpu().avx2;
}
#endif

template <typename Fn>
void
add_op(simd::KernelLibrary& lib, const char* op, Fn ref_fn, Fn avx2_fn)
{
    lib.add(op, simd::Impl::kReference,
            reinterpret_cast<void*>(ref_fn));
#ifdef __AVX2__
    lib.add(op, simd::Impl::kAvx2, reinterpret_cast<void*>(avx2_fn),
            &lowp_avx2_ok);
#else
    (void)avx2_fn;
#endif
}

#ifdef __AVX2__
#define BUCKWILD_LOWP_AVX2(fn) (fn)
#else
#define BUCKWILD_LOWP_AVX2(fn) (nullptr)
#endif

void
do_register(simd::KernelLibrary& lib)
{
    add_op<QuantizeI8Fn>(
        lib, "lowp.quantize_biased_i8", &scalar::quantize_biased,
        BUCKWILD_LOWP_AVX2(&avx2::quantize_biased));
    add_op<QuantizeI16Fn>(
        lib, "lowp.quantize_biased_i16", &scalar::quantize_biased,
        BUCKWILD_LOWP_AVX2(&avx2::quantize_biased));
    add_op<SharedI8Fn>(
        lib, "lowp.quantize_shared_i8", &scalar::quantize_shared,
        BUCKWILD_LOWP_AVX2(&avx2::quantize_shared));
    add_op<SharedI16Fn>(
        lib, "lowp.quantize_shared_i16", &scalar::quantize_shared,
        BUCKWILD_LOWP_AVX2(&avx2::quantize_shared));
    add_op<DequantizeI8Fn>(
        lib, "lowp.dequantize_i8", &scalar::dequantize,
        BUCKWILD_LOWP_AVX2(&avx2::dequantize));
    add_op<DequantizeI16Fn>(
        lib, "lowp.dequantize_i16", &scalar::dequantize,
        BUCKWILD_LOWP_AVX2(&avx2::dequantize));
    add_op<MaxAbsFn>(lib, "lowp.max_abs", &scalar::max_abs,
                     BUCKWILD_LOWP_AVX2(&avx2::max_abs));
    add_op<RoundLevelsFn>(
        lib, "lowp.round_levels_i8", &scalar::round_levels_i8,
        BUCKWILD_LOWP_AVX2(&avx2::round_levels_i8));
    add_op<Sign1BitFn>(
        lib, "lowp.quantize_sign_1bit", &scalar::quantize_sign_1bit,
        BUCKWILD_LOWP_AVX2(&avx2::quantize_sign_1bit));
    add_op<QsgdRoundFn>(lib, "lowp.qsgd_round", &scalar::qsgd_round,
                        BUCKWILD_LOWP_AVX2(&avx2::qsgd_round));
    add_op<QsgdDequantizeFn>(
        lib, "lowp.qsgd_dequantize", &scalar::qsgd_dequantize,
        BUCKWILD_LOWP_AVX2(&avx2::qsgd_dequantize));
}

#undef BUCKWILD_LOWP_AVX2

/// One resolved-pointer cache per public entry. The pointer revalidates
/// against kernel_generation(), so a force_impl() in a test re-steers
/// every entry while the steady state costs one relaxed load + compare.
struct CachedKernel
{
    std::atomic<void*> fn{nullptr};
    std::atomic<std::uint64_t> gen{0};

    template <typename Fn>
    Fn
    get(const char* op)
    {
        const std::uint64_t current = simd::kernel_generation();
        void* p = fn.load(std::memory_order_acquire);
        if (p == nullptr ||
            gen.load(std::memory_order_acquire) != current) {
            register_lowp_kernels();
            p = simd::KernelLibrary::instance().resolve_auto(op).fn;
            fn.store(p, std::memory_order_release);
            gen.store(current, std::memory_order_release);
        }
        return reinterpret_cast<Fn>(p);
    }
};

} // namespace

void
register_lowp_kernels()
{
    static const bool once = [] {
        do_register(simd::KernelLibrary::instance());
        return true;
    }();
    (void)once;
}

bool
vectorized()
{
    register_lowp_kernels();
    return simd::is_vectorized(simd::KernelLibrary::instance()
                                   .resolve_auto("lowp.quantize_biased_i8")
                                   .impl);
}

void
quantize_biased(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid)
{
    static CachedKernel cache;
    cache.get<QuantizeI8Fn>("lowp.quantize_biased_i8")(in, out, n, grid);
}

void
quantize_biased(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid)
{
    static CachedKernel cache;
    cache.get<QuantizeI16Fn>("lowp.quantize_biased_i16")(in, out, n, grid);
}

void
quantize_shared(const float* in, std::int8_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    static CachedKernel cache;
    cache.get<SharedI8Fn>("lowp.quantize_shared_i8")(in, out, n, grid,
                                                     words);
}

void
quantize_shared(const float* in, std::int16_t* out, std::size_t n,
                const GridSpec& grid, const std::uint32_t words[8])
{
    static CachedKernel cache;
    cache.get<SharedI16Fn>("lowp.quantize_shared_i16")(in, out, n, grid,
                                                       words);
}

void
dequantize(const std::int8_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    static CachedKernel cache;
    cache.get<DequantizeI8Fn>("lowp.dequantize_i8")(in, out, n, grid);
}

void
dequantize(const std::int16_t* in, float* out, std::size_t n,
           const GridSpec& grid)
{
    static CachedKernel cache;
    cache.get<DequantizeI16Fn>("lowp.dequantize_i16")(in, out, n, grid);
}

float
max_abs(const float* g, std::size_t n)
{
    static CachedKernel cache;
    return cache.get<MaxAbsFn>("lowp.max_abs")(g, n);
}

void
round_levels_i8(const float* g, std::size_t n, float scale,
                std::int8_t* levels, float* q, float* residual)
{
    static CachedKernel cache;
    cache.get<RoundLevelsFn>("lowp.round_levels_i8")(g, n, scale, levels,
                                                     q, residual);
}

void
quantize_sign_1bit(const float* g, std::size_t n, float scale, float* q,
                   float* residual, std::uint8_t* payload)
{
    static CachedKernel cache;
    cache.get<Sign1BitFn>("lowp.quantize_sign_1bit")(g, n, scale, q,
                                                     residual, payload);
}

void
qsgd_round(const float* g, std::size_t n, float norm, int s,
           const std::uint32_t* words, std::uint8_t* levels,
           std::uint8_t* signs, float* residual)
{
    static CachedKernel cache;
    cache.get<QsgdRoundFn>("lowp.qsgd_round")(g, n, norm, s, words, levels,
                                              signs, residual);
}

void
qsgd_dequantize(const std::uint8_t* levels, const std::uint8_t* signs,
                std::size_t n, float norm, int s, float* out)
{
    static CachedKernel cache;
    cache.get<QsgdDequantizeFn>("lowp.qsgd_dequantize")(levels, signs, n,
                                                        norm, s, out);
}

} // namespace buckwild::lowp
