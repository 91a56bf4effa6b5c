/**
 * @file
 * Figure 4: hand-optimized AVX2 vs compiler-generated code.
 *
 * 4a: dense throughput, hand vs GCC-Ofast float-cast code, per signature;
 * 4b: the sparse counterpart (plain vs unrolled kernels), where
 *     hand-optimization helps much less and can hurt small problems;
 * 4c: the average speedup table.
 *
 * Expected shape: large (up to ~11x in the paper, machine-dependent)
 * dense speedups at 8/16-bit signatures, ~1x at full precision, small or
 * negative effects for sparse.
 */
#include <cstdint>

#include "bench/bench_util.h"
#include "rng/xorshift.h"
#include "simd/ops.h"
#include "simd/sparse_kernels.h"
#include "simd/sparse_ops.h"
#include "util/aligned_buffer.h"

namespace {

using namespace buckwild;

template <typename T>
AlignedBuffer<T>
random_rep(std::size_t n, std::uint32_t seed, int lim)
{
    rng::Xorshift128 gen(seed);
    AlignedBuffer<T> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
        if constexpr (std::is_same_v<T, float>)
            buf[i] = rng::to_unit_float(gen()) * 2 - 1;
        else
            buf[i] =
                static_cast<T>(static_cast<int>(gen() % (2 * lim + 1)) - lim);
    }
    return buf;
}

/// One dot+AXPY pass (the SGD inner loop) at the given impl; returns GNPS.
template <typename D, typename M>
double
dense_pass_gnps(std::size_t n, simd::Impl impl, int lim_d, int lim_m)
{
    const auto x = random_rep<D>(n, 11, lim_d);
    auto w = random_rep<M>(n, 13, lim_m);
    const auto dither = simd::biased_unit();
    volatile float sink = 0.0f;
    const double sec = measure_seconds_per_call(
        [&](std::size_t) {
            sink = sink + simd::DenseOps<D, M>::dot(impl, x.data(), w.data(),
                                                    n, 0.01f, 0.01f);
            simd::DenseOps<D, M>::axpy(impl, w.data(), x.data(), n, 0.001f,
                                       0.01f, 0.01f, dither);
        },
        0.05);
    return static_cast<double>(n) / sec / 1e9;
}

struct DenseRow
{
    const char* name;
    double (*run)(std::size_t, simd::Impl);
};

} // namespace

int
main()
{
    bench::banner(
        "Figure 4 — hand-optimized AVX2 vs compiler (GCC -Ofast) code",
        "hand wins big at 8/16-bit (paper: up to 11x), ~1x at float32; "
        "sparse gains are small and can be negative");

    const std::size_t kN = 1 << 16;

    TablePrinter dense("Fig 4a/4c: dense inner-loop throughput (n = 64K)",
                       {"signature", "naive GNPS", "avx2 GNPS", "speedup"});
    auto add_dense = [&dense](const char* name, double naive, double avx) {
        dense.add_row({name, format_num(naive, 3), format_num(avx, 3),
                       format_num(avx / naive, 3)});
    };

    add_dense("D8M8",
              dense_pass_gnps<std::int8_t, std::int8_t>(
                  kN, simd::Impl::kNaive, 127, 127),
              dense_pass_gnps<std::int8_t, std::int8_t>(
                  kN, simd::Impl::kAvx2, 127, 127));
    add_dense("D8M16",
              dense_pass_gnps<std::int8_t, std::int16_t>(
                  kN, simd::Impl::kNaive, 127, 32767),
              dense_pass_gnps<std::int8_t, std::int16_t>(
                  kN, simd::Impl::kAvx2, 127, 32767));
    add_dense("D16M8",
              dense_pass_gnps<std::int16_t, std::int8_t>(
                  kN, simd::Impl::kNaive, 32767, 127),
              dense_pass_gnps<std::int16_t, std::int8_t>(
                  kN, simd::Impl::kAvx2, 32767, 127));
    add_dense("D16M16",
              dense_pass_gnps<std::int16_t, std::int16_t>(
                  kN, simd::Impl::kNaive, 32767, 32767),
              dense_pass_gnps<std::int16_t, std::int16_t>(
                  kN, simd::Impl::kAvx2, 32767, 32767));
    add_dense("D32fM32f",
              dense_pass_gnps<float, float>(kN, simd::Impl::kNaive, 0, 0),
              dense_pass_gnps<float, float>(kN, simd::Impl::kAvx2, 0, 0));
    bench::emit(dense);

    // ---- Fig 4b: sparse dot — scalar, 4-way unrolled, and the fully
    // hand-vectorized gather variant (often the *loser*, the paper's
    // warning about sparse hand-optimization).
    TablePrinter sparse("Fig 4b: sparse dot, 3% density, D8 values, M32f "
                        "model (u32 indices for the gather path)",
                        {"model size", "plain GNPS", "unrolled GNPS",
                         "gather GNPS", "gather vs plain"});
    for (std::size_t n : {1u << 10, 1u << 13, 1u << 16}) {
        const std::size_t nnz = std::max<std::size_t>(8, n * 3 / 100);
        auto w = random_rep<float>(n, 17, 0);
        auto val = random_rep<std::int8_t>(nnz, 19, 127);
        AlignedBuffer<std::uint32_t> idx(nnz);
        rng::Xorshift128 gen(23);
        for (std::size_t j = 0; j < nnz; ++j)
            idx[j] = gen() % n;

        // The registry's two sparse tiers: the scalar reference and the
        // 4-way unrolled variant (registered under kAvx2).
        using Sparse = simd::SparseOps<std::uint32_t, std::int8_t, float>;
        const auto timed_dot = [&](simd::Impl impl) {
            volatile float sink = 0.0f;
            return measure_seconds_per_call(
                [&](std::size_t) {
                    sink = sink + Sparse::dot(
                                      impl, val.data(), idx.data(), nnz,
                                      w.data(), 0.01f,
                                      simd::sparse::IndexMode::kAbsolute);
                },
                0.03);
        };
        const double plain_sec = timed_dot(simd::Impl::kReference);
        const double unrolled_sec = timed_dot(simd::Impl::kAvx2);
        volatile float sink = 0.0f;
        const double gather_sec = measure_seconds_per_call(
            [&](std::size_t) {
                sink = sink + simd::sparse::dot_gather_d8mf(
                                  val.data(), idx.data(), nnz, w.data(),
                                  0.01f);
            },
            0.03);
        const double plain = nnz / plain_sec / 1e9;
        const double unrolled = nnz / unrolled_sec / 1e9;
        const double gather = nnz / gather_sec / 1e9;
        sparse.add_row({format_si(static_cast<double>(n)),
                        format_num(plain, 3), format_num(unrolled, 3),
                        format_num(gather, 3),
                        format_num(gather / plain, 3)});
    }
    bench::emit(sparse);
    return 0;
}
