/**
 * @file
 * Tests for the dense and sparse kernels (§5.1).
 *
 * The central property — every registered variant of every Table-2
 * (D, M) dot/AXPY pair matches the reference contract (bit-identical on
 * the fixed paths, within summation-order tolerance on the float paths)
 * — is checked by the KernelComparator harness (kernel_comparator.h),
 * which enumerates the KernelLibrary instead of hand-picked size lists:
 * all dims 0..129, large odd sizes, and unaligned offsets, for whatever
 * variants this host can run. What remains here are the edge-semantics
 * pins the sweep can't express: instruction-level overflow corners,
 * rounding/saturation semantics, the sparse kernels, and dispatch.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "kernel_comparator.h"
#include "rng/avx2_xorshift.h"
#include "rng/xorshift.h"
#include "simd/dense_avx2.h"
#include "simd/dense_avx512.h"
#include "simd/dense_ref.h"
#include "simd/ops.h"
#include "simd/sparse_kernels.h"
#include "simd/sparse_ops.h"
#include "test_common.h"
#include "util/aligned_buffer.h"

namespace buckwild::simd {
namespace {

using rng::Xorshift128;
using testutil::comparator_fixed;
using testutil::comparator_floats;

// ------------------------------------------------ registry-driven sweeps

TEST(KernelComparator, D8M8)
{
    testutil::compare_dense_pair<std::int8_t, std::int8_t>();
}
TEST(KernelComparator, D16M8)
{
    testutil::compare_dense_pair<std::int16_t, std::int8_t>();
}
TEST(KernelComparator, D8M16)
{
    testutil::compare_dense_pair<std::int8_t, std::int16_t>();
}
TEST(KernelComparator, D16M16)
{
    testutil::compare_dense_pair<std::int16_t, std::int16_t>();
}
TEST(KernelComparator, DFM8)
{
    testutil::compare_dense_pair<float, std::int8_t>();
}
TEST(KernelComparator, DFM16)
{
    testutil::compare_dense_pair<float, std::int16_t>();
}
TEST(KernelComparator, D8MF)
{
    testutil::compare_dense_pair<std::int8_t, float>();
}
TEST(KernelComparator, D16MF)
{
    testutil::compare_dense_pair<std::int16_t, float>();
}
TEST(KernelComparator, DFMF)
{
    testutil::compare_dense_pair<float, float>();
}

// Sparse dot/AXPY, per index rep: every registered variant against the
// reference, absolute + delta streams with rep-edge gap padding.
TEST(KernelComparator, SparseI8)
{
    testutil::compare_sparse_index_rep<std::uint8_t>();
}
TEST(KernelComparator, SparseI16)
{
    testutil::compare_sparse_index_rep<std::uint16_t>();
}
TEST(KernelComparator, SparseI32)
{
    testutil::compare_sparse_index_rep<std::uint32_t>();
}

// --------------------------------------------- instruction-level corners

TEST(DotParity, D8M8ExtremeValuesNoMaddubsOverflow)
{
    // The vpmaddubsw sign-trick edge: x = -128 (|x| = 128 unsigned) against
    // w = +-127 pairs — the maximum-magnitude pair sums.
    constexpr std::size_t kN = 64;
    AlignedBuffer<std::int8_t> x(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        x[i] = -128;
        w[i] = (i % 2 == 0) ? 127 : -127;
    }
    const float r = ref::dot_d8m8(x.data(), w.data(), kN, 1.0f);
    const float a = avx2::dot_d8m8(x.data(), w.data(), kN, 1.0f);
    EXPECT_EQ(r, a);
    EXPECT_EQ(r, 0.0f); // alternating signs cancel
    // All-same-sign version: no cancellation, maximal accumulation.
    for (std::size_t i = 0; i < kN; ++i) w[i] = 127;
    EXPECT_EQ(ref::dot_d8m8(x.data(), w.data(), kN, 1.0f),
              avx2::dot_d8m8(x.data(), w.data(), kN, 1.0f));
}

TEST(DotParity, D16M16NearOverflowPairs)
{
    // Pairs at the vpmaddwd edge: 32767 * 32767 * 2 per int32 lane.
    constexpr std::size_t kN = 128;
    AlignedBuffer<std::int16_t> x(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        x[i] = 32767;
        w[i] = 32767;
    }
    EXPECT_EQ(ref::dot_d16m16(x.data(), w.data(), kN, 1.0f),
              avx2::dot_d16m16(x.data(), w.data(), kN, 1.0f));
}

TEST(DotParity, LongVectorInt32AccumulatorFlush)
{
    // Exercises the periodic int32 -> int64 flush on a long all-positive
    // vector, where a missing flush would wrap negative.
    constexpr std::size_t kN = 1 << 20;
    AlignedBuffer<std::int8_t> x(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        x[i] = 127;
        w[i] = 127;
    }
    const double expect = 127.0 * 127.0 * kN;
    EXPECT_EQ(avx2::dot_d8m8(x.data(), w.data(), kN, 1.0f),
              static_cast<float>(expect));
}

// -------------------------------------------------------- AXPY semantics

TEST(AxpySemantics, BiasedRoundingIsRoundHalfUp)
{
    // c = 1.0 in quanta, x = 1 -> delta exactly 1; x = 0 -> 0.
    AlignedBuffer<std::int8_t> w(4), x(4);
    x[0] = 0; x[1] = 1; x[2] = -1; x[3] = 100;
    const FixedScalar cs = make_scalar_d8m8(1.0f);
    ref::axpy_d8m8(w.data(), x.data(), 4, cs, biased_fixed(kShiftD8M8));
    EXPECT_EQ(w[0], 0);
    EXPECT_EQ(w[1], 1);
    EXPECT_EQ(w[2], -1);
    EXPECT_EQ(w[3], 100);
}

TEST(AxpySemantics, HalfQuantumRoundsUpWithBiasedDither)
{
    // c = 0.5: mult = 64, (64*1 + 64) >> 7 = 1 (half rounds up);
    // x = -1: (-64 + 64) >> 7 = 0.
    AlignedBuffer<std::int8_t> w(2), x(2);
    x[0] = 1; x[1] = -1;
    ref::axpy_d8m8(w.data(), x.data(), 2, make_scalar_d8m8(0.5f),
                   biased_fixed(kShiftD8M8));
    EXPECT_EQ(w[0], 1);
    EXPECT_EQ(w[1], 0);
}

TEST(AxpySemantics, SaturatesSymmetrically)
{
    AlignedBuffer<std::int8_t> w(64), x(64);
    for (std::size_t i = 0; i < 64; ++i) {
        w[i] = (i % 2 == 0) ? 127 : -127;
        x[i] = (i % 2 == 0) ? 127 : -127;
    }
    avx2::axpy_d8m8(w.data(), x.data(), 64, make_scalar_d8m8(1.9f),
                    biased_fixed(kShiftD8M8));
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(w[i], (i % 2 == 0) ? 127 : -127);
}

TEST(AxpySemantics, UnbiasedMeanUpdateIsExact)
{
    // Statistical property (Eq. 4): averaging the update over many random
    // dither blocks recovers the real-valued delta.
    constexpr int kTrials = 4000;
    constexpr float kC = 0.3f; // delta = 0.3 quanta per unit x
    rng::Avx2Xorshift128Plus gen(123);
    double sum = 0.0;
    AlignedBuffer<std::int8_t> x(32);
    for (std::size_t i = 0; i < 32; ++i) x[i] = 1;
    for (int t = 0; t < kTrials; ++t) {
        DitherBlock d;
        gen.fill(reinterpret_cast<std::uint32_t*>(d.bytes), 8);
        AlignedBuffer<std::int8_t> w(32);
        avx2::axpy_d8m8(w.data(), x.data(), 32, make_scalar_d8m8(kC), d);
        for (std::size_t i = 0; i < 32; ++i) sum += w[i];
    }
    const double mean = sum / (kTrials * 32.0);
    const double expected =
        static_cast<double>(make_scalar_d8m8(kC).mult) / 128.0;
    EXPECT_NEAR(mean, expected, 0.01);
}

TEST(FixedScalarTests, QuantizationAndClamping)
{
    EXPECT_EQ(make_scalar_d8m8(0.5f).mult, 64);
    EXPECT_EQ(make_scalar_d8m8(0.5f).shift, kShiftD8M8);
    EXPECT_EQ(make_scalar_d8m8(100.0f).mult, kMultLimitM8);
    EXPECT_EQ(make_scalar_d8m8(-100.0f).mult, -kMultLimitM8);
    EXPECT_NEAR(make_scalar_d8m8(0.37f).value(), 0.37f, 1.0f / 128.0f);
    EXPECT_EQ(make_scalar_d8m16(0.5f).mult, 256);
    EXPECT_EQ(make_scalar_d8m16(100.0f).mult, kMultLimit32);
    EXPECT_EQ(make_scalar_d16m16(0.5f).mult, 8192);
    EXPECT_NEAR(make_scalar_d16m16(-1.7f).value(), -1.7f, 1.0f / 16384.0f);
    // The D16 -> M8 path resolves tiny coefficients (the eta*qx/qm ~
    // eta/256 regime) instead of rounding them to zero.
    EXPECT_EQ(make_scalar_d16m8(1.0f / 1024.0f).mult, 1024);
    EXPECT_NEAR(make_scalar_d16m8(2.9e-4f).value(), 2.9e-4f, 1e-6f);
}

TEST(DitherBlocks, BiasedBlocksEncodeHalfQuantum)
{
    const DitherBlock unit = biased_unit();
    for (int shift : {kShiftD8M8, kShiftD8M16, kShiftD16M16, kShiftD16M8}) {
        const DitherBlock b = biased_fixed(shift);
        for (std::size_t i = 0; i < 40; ++i)
            EXPECT_EQ(b.dither_fixed(i, shift),
                      1u << (shift - 1))
                << "shift " << shift << " i " << i;
    }
    for (std::size_t i = 0; i < 40; ++i)
        EXPECT_EQ(unit.dither_unit(i), 0.5f);
}

// ---------------------------------------------------------------- sparse

TEST(Sparse, DotAbsoluteAndDeltaAgree)
{
    // Same logical vector twice: absolute u32 indices, and u8 delta gaps
    // with zero-valued padding entries where a gap exceeds 255 (exactly
    // what the dataset builder emits).
    constexpr std::size_t kModel = 2000;
    const auto w = comparator_fixed<std::int8_t>(kModel, 101, 127);
    const std::vector<std::int8_t> abs_val = {5, -3, 7, 100, -128, 22};
    const std::vector<std::uint32_t> abs_idx = {3, 200, 230, 400, 555, 1999};

    std::vector<std::int8_t> delta_val;
    std::vector<std::uint8_t> delta_idx;
    std::size_t prev = 0;
    for (std::size_t j = 0; j < abs_idx.size(); ++j) {
        std::size_t gap = abs_idx[j] - prev;
        while (gap > 255) { // zero padding entry
            delta_idx.push_back(255);
            delta_val.push_back(0);
            gap -= 255;
        }
        delta_idx.push_back(static_cast<std::uint8_t>(gap));
        delta_val.push_back(abs_val[j]);
        prev = abs_idx[j];
    }
    ASSERT_GT(delta_idx.size(), abs_idx.size()); // the 555->1999 gap split

    const float a = SparseOps<std::uint32_t, std::int8_t, std::int8_t>::dot(
        Impl::kReference, abs_val.data(), abs_idx.data(), abs_val.size(),
        w.data(), 0.5f, sparse::IndexMode::kAbsolute);
    const float d = SparseOps<std::uint8_t, std::int8_t, std::int8_t>::dot(
        Impl::kReference, delta_val.data(), delta_idx.data(),
        delta_val.size(), w.data(), 0.5f, sparse::IndexMode::kDelta);
    EXPECT_EQ(a, d);
}

TEST(Sparse, DotMatchesDenseOnExpandedVector)
{
    constexpr std::size_t kModel = 512;
    const auto w = comparator_fixed<std::int16_t>(kModel, 102, 32767);
    std::vector<std::int8_t> val;
    std::vector<std::uint16_t> idx;
    AlignedBuffer<std::int8_t> dense_x(kModel);
    Xorshift128 gen(103);
    for (std::size_t k = 0; k < kModel; k += 1 + gen() % 37) {
        const auto v = static_cast<std::int8_t>(
            static_cast<int>(gen() % 255) - 127);
        val.push_back(v);
        idx.push_back(static_cast<std::uint16_t>(k));
        dense_x[k] = v;
    }
    const float s = 1.0f / 1024.0f;
    using Ops = SparseOps<std::uint16_t, std::int8_t, std::int16_t>;
    const float sp = Ops::dot(Impl::kReference, val.data(), idx.data(),
                              val.size(), w.data(), s,
                              sparse::IndexMode::kAbsolute);
    const float dn = ref::dot_d8m16(dense_x.data(), w.data(), kModel, s);
    EXPECT_EQ(sp, dn);
    // The unrolled tier (registered under kAvx2) accumulates in int64
    // too: bit-identical.
    const float un = Ops::dot(Impl::kAvx2, val.data(), idx.data(),
                              val.size(), w.data(), s,
                              sparse::IndexMode::kAbsolute);
    EXPECT_EQ(sp, un);
}

TEST(Sparse, AxpyMatchesDenseUpdateOnTouchedCoordinates)
{
    constexpr std::size_t kModel = 300;
    auto w_sparse = comparator_fixed<std::int8_t>(kModel, 104, 127);
    auto w_before = w_sparse;
    std::vector<std::int8_t> val = {10, -20, 30, 40};
    std::vector<std::uint16_t> idx = {7, 70, 170, 299};
    const FixedScalar cs = make_scalar_d8m8(0.8f);
    const DitherBlock d = biased_fixed(kShiftD8M8);
    SparseOps<std::uint16_t, std::int8_t, std::int8_t>::axpy(
        Impl::kReference, w_sparse.data(), val.data(), idx.data(),
        val.size(), cs, 0.0f, d, sparse::IndexMode::kAbsolute);
    for (std::size_t k = 0, j = 0; k < kModel; ++k) {
        if (j < idx.size() && idx[j] == k) {
            EXPECT_EQ(w_sparse[k],
                      ref::update_m8(w_before[k], val[j], cs,
                                     d.dither_fixed(j, cs.shift)))
                << k;
            ++j;
        } else {
            EXPECT_EQ(w_sparse[k], w_before[k]) << k;
        }
    }
}

TEST(Sparse, AxpyFloatModelAndFloatValues)
{
    constexpr std::size_t kModel = 100;
    AlignedBuffer<float> w(kModel);
    std::vector<float> val = {0.5f, -0.25f};
    std::vector<std::uint8_t> idx = {10, 22}; // gaps: coords 10 and 32
    SparseOps<std::uint8_t>::axpy(Impl::kReference, w.data(), val.data(),
                                  idx.data(), val.size(), 2.0f,
                                  sparse::IndexMode::kDelta);
    EXPECT_FLOAT_EQ(w[10], 1.0f);
    EXPECT_FLOAT_EQ(w[32], -0.5f);
    for (std::size_t k = 0; k < kModel; ++k) {
        if (k != 10 && k != 32) { EXPECT_EQ(w[k], 0.0f); }
    }
}

TEST(Sparse, SixteenBitModelAxpyDeltaMode)
{
    AlignedBuffer<std::int16_t> w(64);
    std::vector<std::int16_t> val = {1000, -1000, 500};
    std::vector<std::uint8_t> gaps = {5, 10, 10}; // coords 5, 15, 25
    const FixedScalar cs = make_scalar_d16m16(1.0f);
    SparseOps<std::uint8_t, std::int16_t, std::int16_t>::axpy(
        Impl::kReference, w.data(), val.data(), gaps.data(), val.size(), cs,
        0.0f, biased_fixed(kShiftD16M16), sparse::IndexMode::kDelta);
    EXPECT_EQ(w[5], 1000);
    EXPECT_EQ(w[15], -1000);
    EXPECT_EQ(w[25], 500);
}

TEST(Sparse, GatherDotMatchesScalar)
{
    // nnz sweeps the comparator's dimension grid (the gather kernel's
    // lane count is 8, so 0..129 covers every tail shape many times).
    constexpr std::size_t kModel = 4096;
    AlignedBuffer<float> w = comparator_floats(kModel, 301);
    for (std::size_t nnz : testutil::comparator_dims()) {
        AlignedBuffer<std::int8_t> val = comparator_fixed<std::int8_t>(
            nnz, 302 + static_cast<std::uint32_t>(nnz), 127);
        AlignedBuffer<std::uint32_t> idx(nnz);
        Xorshift128 gen(303);
        for (std::size_t j = 0; j < nnz; ++j)
            idx[j] = gen() % kModel;
        const float scalar =
            SparseOps<std::uint32_t, std::int8_t, float>::dot(
                Impl::kReference, val.data(), idx.data(), nnz, w.data(),
                0.01f, sparse::IndexMode::kAbsolute);
        const float gather = sparse::dot_gather_d8mf(
            val.data(), idx.data(), nnz, w.data(), 0.01f);
        EXPECT_NEAR(scalar, gather,
                    std::fabs(scalar) * 1e-4f + 1e-3f)
            << "nnz=" << nnz;
    }
}

// -------------------------------------------------------------- dispatch

TEST(Ops, DispatchProducesConsistentResults)
{
    constexpr std::size_t kN = 200;
    const auto x = comparator_fixed<std::int8_t>(kN, 105, 127);
    const auto w = comparator_fixed<std::int8_t>(kN, 106, 127);
    const float qx = 1.0f / 64, qm = 1.0f / 64;
    const float r = DenseOps<std::int8_t, std::int8_t>::dot(
        Impl::kReference, x.data(), w.data(), kN, qx, qm);
    const float a = DenseOps<std::int8_t, std::int8_t>::dot(
        Impl::kAvx2, x.data(), w.data(), kN, qx, qm);
    const float nv = DenseOps<std::int8_t, std::int8_t>::dot(
        Impl::kNaive, x.data(), w.data(), kN, qx, qm);
    EXPECT_EQ(r, a);
    EXPECT_NEAR(r, nv, std::fabs(r) * 1e-4f + 1e-3f);
}

TEST(Ops, AxpyDispatchAppliesRealValuedCoefficient)
{
    constexpr std::size_t kN = 64;
    AlignedBuffer<std::int8_t> x(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) x[i] = 64; // x real value = 1.0
    const float qx = 1.0f / 64, qm = 1.0f / 64;
    // c = 0.25 real: delta per element = 0.25/qm = 16 quanta.
    DenseOps<std::int8_t, std::int8_t>::axpy(Impl::kAvx2, w.data(), x.data(),
                                             kN, 0.25f, qx, qm,
                                             biased_fixed(kShiftD8M8));
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(w[i], 16);
}

TEST(Ops, Names)
{
    EXPECT_STREQ(to_string(Impl::kReference), "reference");
    EXPECT_STREQ(to_string(Impl::kNaive), "naive");
    EXPECT_STREQ(to_string(Impl::kAvx2), "avx2");
    EXPECT_STREQ(to_string(Impl::kFma), "fma");
    EXPECT_STREQ(to_string(Impl::kAvx512), "avx512");
    // best_impl() honors the override first (the forced-impl CI matrix
    // runs this suite under BUCKWILD_KERNEL_IMPL); otherwise it is the
    // fastest tier this build + host supports.
    if (const auto forced = forced_impl())
        EXPECT_EQ(best_impl(), resolve_impl(*forced));
    else if (impl_supported(Impl::kAvx512))
        EXPECT_EQ(best_impl(), Impl::kAvx512);
    else if (impl_supported(Impl::kFma))
        EXPECT_EQ(best_impl(), Impl::kFma);
    else if (impl_supported(Impl::kAvx2))
        EXPECT_EQ(best_impl(), Impl::kAvx2);
    else
        EXPECT_EQ(best_impl(), Impl::kReference);
}

// ------------------------------------------------------------- AVX-512

TEST(Avx512, DotD8M8LongVectorFlush)
{
    if (!avx512::available()) GTEST_SKIP() << "no AVX-512 on this CPU";
    constexpr std::size_t kN = 1 << 20;
    AlignedBuffer<std::int8_t> x(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        x[i] = 127;
        w[i] = 127;
    }
    EXPECT_EQ(avx512::dot_d8m8(x.data(), w.data(), kN, 1.0f),
              static_cast<float>(127.0 * 127.0 * kN));
}

TEST(Avx512, TrainerRunsAtAvx512)
{
    if (!avx512::available()) GTEST_SKIP() << "no AVX-512 on this CPU";
    // End-to-end: a D8M8 training run at kAvx512 must be bit-identical to
    // the reference implementation (the native 512-bit paths share the
    // exact integer contract).
    // Covered at engine level in test_core (ImplParity); here we check
    // the forwarding pairs dispatch without error.
    AlignedBuffer<std::int16_t> w(64);
    AlignedBuffer<std::int8_t> x(64);
    DenseOps<std::int8_t, std::int16_t>::axpy(
        Impl::kAvx512, w.data(), x.data(), 64, 0.1f, 0.01f, 0.01f,
        biased_fixed(kShiftD8M16));
    SUCCEED();
}

} // namespace
} // namespace buckwild::simd
