/**
 * @file
 * Randomized property ("fuzz") tests for the kernel stack: for many
 * random seeds, random sizes, random coefficients, and random dither
 * blocks, every vectorized implementation must match the reference
 * contract bit-for-bit on the fixed paths.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "rng/xorshift.h"
#include "simd/dense_avx2.h"
#include "simd/dense_avx512.h"
#include "simd/dense_naive.h"
#include "simd/dense_ref.h"
#include "simd/ops.h"
#include "simd/sparse_kernels.h"
#include "simd/sparse_ops.h"
#include "util/aligned_buffer.h"

namespace buckwild::simd {
namespace {

struct Fuzz
{
    explicit Fuzz(std::uint32_t seed) : gen(seed) {}

    std::size_t
    size()
    {
        return gen() % 600; // covers sub-vector through multi-vector
    }

    template <typename T>
    AlignedBuffer<T>
    values(std::size_t n, int lim)
    {
        AlignedBuffer<T> buf(n);
        for (std::size_t i = 0; i < n; ++i)
            buf[i] = static_cast<T>(
                static_cast<int>(gen() % (2 * lim + 1)) - lim);
        return buf;
    }

    AlignedBuffer<float>
    floats(std::size_t n)
    {
        AlignedBuffer<float> buf(n);
        for (std::size_t i = 0; i < n; ++i)
            buf[i] = rng::to_unit_float(gen()) * 4.0f - 2.0f;
        return buf;
    }

    float
    coefficient(float range)
    {
        return (rng::to_unit_float(gen()) * 2.0f - 1.0f) * range;
    }

    DitherBlock
    dither()
    {
        DitherBlock block;
        for (auto& b : block.bytes) b = static_cast<std::uint8_t>(gen());
        return block;
    }

    rng::Xorshift128 gen;
};

class KernelFuzz : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(KernelFuzz, D8M8DotAndAxpyAllImplsAgree)
{
    Fuzz fuzz(GetParam());
    for (int round = 0; round < 8; ++round) {
        const std::size_t n = fuzz.size();
        const auto x = fuzz.values<std::int8_t>(n, 128);
        auto w_ref = fuzz.values<std::int8_t>(n, 127);
        auto w_avx = w_ref;
        auto w_512 = w_ref;

        ASSERT_EQ(ref::dot_d8m8(x.data(), w_ref.data(), n, 1.0f),
                  avx2::dot_d8m8(x.data(), w_avx.data(), n, 1.0f));
        if (avx512::available()) {
            ASSERT_EQ(ref::dot_d8m8(x.data(), w_ref.data(), n, 1.0f),
                      avx512::dot_d8m8(x.data(), w_512.data(), n, 1.0f));
        }

        const FixedScalar cs = make_scalar_d8m8(fuzz.coefficient(2.0f));
        const DitherBlock d = fuzz.dither();
        ref::axpy_d8m8(w_ref.data(), x.data(), n, cs, d);
        avx2::axpy_d8m8(w_avx.data(), x.data(), n, cs, d);
        avx512::axpy_d8m8(w_512.data(), x.data(), n, cs, d);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(w_ref[i], w_avx[i]) << "avx2 i=" << i << " n=" << n;
            if (avx512::available()) {
                ASSERT_EQ(w_ref[i], w_512[i])
                    << "avx512 i=" << i << " n=" << n;
            }
        }
    }
}

TEST_P(KernelFuzz, MixedWidthPairsAgree)
{
    Fuzz fuzz(GetParam() ^ 0xABCD);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n = fuzz.size();
        const auto x8 = fuzz.values<std::int8_t>(n, 128);
        const auto x16 = fuzz.values<std::int16_t>(n, 32767);
        const DitherBlock d = fuzz.dither();

        { // D16M8
            auto a = fuzz.values<std::int8_t>(n, 127);
            auto b = a;
            const FixedScalar cs =
                make_scalar_d16m8(fuzz.coefficient(0.02f));
            ref::axpy_d16m8(a.data(), x16.data(), n, cs, d);
            avx2::axpy_d16m8(b.data(), x16.data(), n, cs, d);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(a[i], b[i]) << "d16m8 i=" << i;
        }
        { // D8M16
            auto a = fuzz.values<std::int16_t>(n, 32767);
            auto b = a;
            const FixedScalar cs =
                make_scalar_d8m16(fuzz.coefficient(8.0f));
            ref::axpy_d8m16(a.data(), x8.data(), n, cs, d);
            avx2::axpy_d8m16(b.data(), x8.data(), n, cs, d);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(a[i], b[i]) << "d8m16 i=" << i;
        }
        { // D16M16
            auto a = fuzz.values<std::int16_t>(n, 32767);
            auto b = a;
            const FixedScalar cs =
                make_scalar_d16m16(fuzz.coefficient(2.0f));
            ref::axpy_d16m16(a.data(), x16.data(), n, cs, d);
            avx2::axpy_d16m16(b.data(), x16.data(), n, cs, d);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(a[i], b[i]) << "d16m16 i=" << i;
        }
        { // dots
            const auto w8 = fuzz.values<std::int8_t>(n, 127);
            const auto w16 = fuzz.values<std::int16_t>(n, 32767);
            ASSERT_EQ(ref::dot_d8m16(x8.data(), w16.data(), n, 1.0f),
                      avx2::dot_d8m16(x8.data(), w16.data(), n, 1.0f));
            ASSERT_EQ(ref::dot_d16m8(x16.data(), w8.data(), n, 1.0f),
                      avx2::dot_d16m8(x16.data(), w8.data(), n, 1.0f));
            ASSERT_EQ(ref::dot_d16m16(x16.data(), w16.data(), n, 1.0f),
                      avx2::dot_d16m16(x16.data(), w16.data(), n, 1.0f));
        }
    }
}

TEST_P(KernelFuzz, FloatDatasetFixedModelAgree)
{
    Fuzz fuzz(GetParam() ^ 0x1234);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n = fuzz.size();
        const auto xf = fuzz.floats(n);
        const DitherBlock d = fuzz.dither();
        const float cf = fuzz.coefficient(50.0f);
        {
            auto a = fuzz.values<std::int8_t>(n, 127);
            auto b = a;
            ref::axpy_dfm8(a.data(), xf.data(), n, cf, d);
            avx2::axpy_dfm8(b.data(), xf.data(), n, cf, d);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(a[i], b[i]) << "dfm8 i=" << i;
        }
        {
            auto a = fuzz.values<std::int16_t>(n, 32767);
            auto b = a;
            ref::axpy_dfm16(a.data(), xf.data(), n, cf * 100.0f, d);
            avx2::axpy_dfm16(b.data(), xf.data(), n, cf * 100.0f, d);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(a[i], b[i]) << "dfm16 i=" << i;
        }
    }
}

TEST_P(KernelFuzz, SparseAxpyMatchesScalarReplay)
{
    Fuzz fuzz(GetParam() ^ 0x7777);
    constexpr std::size_t kModel = 512;
    for (int round = 0; round < 6; ++round) {
        const std::size_t nnz = fuzz.gen() % 64;
        auto w = fuzz.values<std::int8_t>(kModel, 127);
        auto w_expect = w;
        const auto val = fuzz.values<std::int8_t>(nnz, 127);
        AlignedBuffer<std::uint16_t> idx(nnz);
        for (std::size_t j = 0; j < nnz; ++j)
            idx[j] = static_cast<std::uint16_t>(fuzz.gen() % kModel);
        const FixedScalar cs = make_scalar_d8m8(fuzz.coefficient(1.5f));
        const DitherBlock d = fuzz.dither();

        SparseOps<std::uint16_t, std::int8_t, std::int8_t>::axpy(
            Impl::kReference, w.data(), val.data(), idx.data(), nnz, cs,
            0.0f, d, sparse::IndexMode::kAbsolute);
        // Scalar replay (duplicate indices must apply sequentially).
        for (std::size_t j = 0; j < nnz; ++j)
            w_expect[idx[j]] = ref::update_m8(
                w_expect[idx[j]], val[j], cs, d.dither_fixed(j, cs.shift));
        for (std::size_t k = 0; k < kModel; ++k)
            ASSERT_EQ(w[k], w_expect[k]) << "k=" << k;
    }
}

TEST_P(KernelFuzz, RegistryForcedDispatchMatchesReference)
{
    // Fuzz *through* the registry: each round forces a random Impl (the
    // BUCKWILD_KERNEL_IMPL hook) and checks that the ambient DenseOps
    // dispatch — which re-resolves under the override via the generation
    // counter — matches the explicit reference variant under the same
    // tolerance class the comparator pins.
    Fuzz fuzz(GetParam() ^ 0x5EED);
    using Ops8 = DenseOps<std::int8_t, std::int8_t>;
    using OpsF = DenseOps<float, float>;
    for (int round = 0; round < 8; ++round) {
        const Impl forced =
            kAllImpls[fuzz.gen() % static_cast<std::uint32_t>(kImplCount)];
        ForcedImplGuard guard(forced);
        const Impl served = resolve_impl(forced);
        ASSERT_EQ(best_impl(), served);

        const std::size_t n = fuzz.size();
        const float qx = 1.0f / 64, qm = 1.0f / 64;
        const auto x = fuzz.values<std::int8_t>(n, 128);
        auto w_ref = fuzz.values<std::int8_t>(n, 127);
        auto w_amb = w_ref;

        const float r =
            Ops8::dot(Impl::kReference, x.data(), w_ref.data(), n, qx, qm);
        const float amb = Ops8::dot(x.data(), w_amb.data(), n, qx, qm);
        if (served == Impl::kNaive)
            ASSERT_NEAR(r, amb, std::fabs(r) * 1e-4f + 1e-3f)
                << "impl=" << to_string(forced) << " n=" << n;
        else
            ASSERT_EQ(r, amb)
                << "impl=" << to_string(forced) << " n=" << n;

        const float c = fuzz.coefficient(1.5f);
        const DitherBlock d = fuzz.dither();
        Ops8::axpy(Impl::kReference, w_ref.data(), x.data(), n, c, qx, qm,
                   d);
        Ops8::axpy(w_amb.data(), x.data(), n, c, qx, qm, d);
        for (std::size_t i = 0; i < n; ++i) {
            if (served == Impl::kNaive)
                ASSERT_NEAR(w_ref[i], w_amb[i], 1)
                    << "impl=" << to_string(forced) << " i=" << i;
            else
                ASSERT_EQ(w_ref[i], w_amb[i])
                    << "impl=" << to_string(forced) << " i=" << i;
        }

        // Float path under the same forcing: summation-order tolerance.
        const auto xf = fuzz.floats(n);
        const auto wf = fuzz.floats(n);
        const float rf = OpsF::dot(Impl::kReference, xf.data(), wf.data(),
                                   n, 1.0f, 1.0f);
        ASSERT_NEAR(rf, OpsF::dot(xf.data(), wf.data(), n, 1.0f, 1.0f),
                    1e-4f * (static_cast<float>(n) + 1.0f) +
                        std::fabs(rf) * 1e-4f)
            << "impl=" << to_string(forced) << " n=" << n;
    }
}

TEST_P(KernelFuzz, SparseForcedDispatchMatchesReference)
{
    // The sparse op family through the registry: force a random Impl and
    // check ambient SparseOps dispatch against the explicit reference
    // variant, for both index modes. Dot gets the float summation-order
    // tolerance (the unrolled tier reassociates); AXPY touches each
    // coordinate once here, so per-element agreement is tight.
    Fuzz fuzz(GetParam() ^ 0x5A9Eu);
    register_sparse_kernels();
    using Ops16 = SparseOps<std::uint16_t>;
    constexpr std::size_t kModel = 512;
    for (int round = 0; round < 6; ++round) {
        const Impl forced =
            kAllImpls[fuzz.gen() % static_cast<std::uint32_t>(kImplCount)];
        ForcedImplGuard guard(forced);

        const std::size_t nnz = fuzz.gen() % 96;
        const auto val = fuzz.floats(nnz);
        const auto w = fuzz.floats(kModel);
        // Distinct ascending absolute indices bounded by the model.
        AlignedBuffer<std::uint16_t> idx(nnz);
        const std::size_t gap_cap = nnz > 0
            ? std::max<std::size_t>(1, (kModel - nnz - 1) / (nnz + 1))
            : 1;
        std::size_t cursor = 0;
        for (std::size_t j = 0; j < nnz; ++j) {
            cursor += 1 + fuzz.gen() % gap_cap;
            idx[j] = static_cast<std::uint16_t>(cursor);
        }
        // And the same support as u16 delta gaps.
        AlignedBuffer<std::uint16_t> gaps(nnz);
        for (std::size_t j = 0; j < nnz; ++j)
            gaps[j] = static_cast<std::uint16_t>(
                j == 0 ? idx[0] : idx[j] - idx[j - 1]);

        for (const auto mode : {sparse::IndexMode::kAbsolute,
                                sparse::IndexMode::kDelta}) {
            const std::uint16_t* stream =
                mode == sparse::IndexMode::kAbsolute ? idx.data()
                                                     : gaps.data();
            const float r = Ops16::dot(Impl::kReference, val.data(), stream,
                                       nnz, w.data(), 0.5f, mode);
            const float amb =
                Ops16::dot(val.data(), stream, nnz, w.data(), 0.5f, mode);
            ASSERT_NEAR(r, amb,
                        1e-4f * (static_cast<float>(nnz) + 1.0f) +
                            std::fabs(r) * 1e-4f + 1e-3f)
                << "impl=" << to_string(forced) << " nnz=" << nnz;

            auto w_ref = w;
            auto w_amb = w;
            const float c = fuzz.coefficient(1.5f);
            Ops16::axpy(Impl::kReference, w_ref.data(), val.data(), stream,
                        nnz, c, mode);
            Ops16::axpy(w_amb.data(), val.data(), stream, nnz, c, mode);
            for (std::size_t k = 0; k < kModel; ++k)
                ASSERT_NEAR(w_ref[k], w_amb[k], 1e-5f)
                    << "impl=" << to_string(forced) << " k=" << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz,
                         ::testing::Range<std::uint32_t>(1, 17),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

} // namespace
} // namespace buckwild::simd
