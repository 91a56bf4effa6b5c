/**
 * @file
 * KernelComparator: exhaustive registry-driven equivalence harness.
 *
 * Instead of hand-picked size lists per suite, the comparator enumerates
 * the KernelLibrary itself: for every op it pulls every registered
 * variant that is runnable on this host and checks it against the
 * kReference variant over *all* dimensions 0..129 (every sub-vector /
 * exact-vector / vector+tail shape for 8-, 16-, 32- and 64-lane
 * kernels), three large odd sizes, and three pointer mis-alignments.
 * New variants (a future AVX-512 lowp path, say) are covered the moment
 * they register — no test edit required.
 *
 * Tolerance classes reproduce the per-kernel contracts the old
 * hand-written suites pinned:
 *  - fixed x fixed dots: bit-exact for the hand-vectorized variants,
 *    relative tolerance for the compiler-vectorized naive build;
 *  - float-accumulating dots: summation-order tolerance 1e-4 * (n + 1);
 *  - fixed-model AXPYs: bit-exact vectorized, <= 1 model quantum naive;
 *  - float-model AXPYs: per-element 1e-5;
 *  - every lowp array kernel: bit-exact (that is the §5.2 promise).
 */
#ifndef BUCKWILD_TESTS_KERNEL_COMPARATOR_H
#define BUCKWILD_TESTS_KERNEL_COMPARATOR_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "fixed/fixed_point.h"
#include "lowp/grid.h"
#include "lowp/round.h"
#include "rng/xorshift.h"
#include "simd/fixed_scalar.h"
#include "simd/ops.h"
#include "simd/registry.h"
#include "simd/sparse_ops.h"
#include "util/aligned_buffer.h"

namespace buckwild::testutil {

// ---------------------------------------------------------------------
// The sweep grid
// ---------------------------------------------------------------------

/// Every dimension 0..129 — denser than any kernel's lane count — plus
/// large odd sizes that force many full vectors and a ragged tail.
inline const std::vector<std::size_t>&
comparator_dims()
{
    static const std::vector<std::size_t> kDims = [] {
        std::vector<std::size_t> dims;
        for (std::size_t n = 0; n <= 129; ++n) dims.push_back(n);
        for (std::size_t n : {255u, 1000u, 4097u}) dims.push_back(n);
        return dims;
    }();
    return kDims;
}

/// Element offsets added to the (aligned) buffer base, so every kernel
/// also runs against unaligned input and output pointers.
inline constexpr std::size_t kComparatorOffsets[] = {0, 1, 3};

// ---------------------------------------------------------------------
// Deterministic data generators (shared by test_simd and test_lowp)
// ---------------------------------------------------------------------

/// Fixed-rep test vectors in [-lim, lim]. Model reps obey the symmetric
/// contract (lim = 127 / 32767); dataset reps may use the full range.
template <typename T>
AlignedBuffer<T>
comparator_fixed(std::size_t n, std::uint32_t seed, int lim)
{
    rng::Xorshift128 gen(seed);
    AlignedBuffer<T> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] =
            static_cast<T>(static_cast<int>(gen() % (2 * lim + 1)) - lim);
    return buf;
}

inline AlignedBuffer<float>
comparator_floats(std::size_t n, std::uint32_t seed, float scale = 1.0f)
{
    rng::Xorshift128 gen(seed);
    AlignedBuffer<float> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = (rng::to_unit_float(gen()) * 2.0f - 1.0f) * scale;
    return buf;
}

inline simd::DitherBlock
comparator_dither(std::uint32_t seed)
{
    rng::Xorshift128 gen(seed);
    simd::DitherBlock block;
    for (auto& b : block.bytes) b = static_cast<std::uint8_t>(gen());
    return block;
}

// ---------------------------------------------------------------------
// Span asserts (gtest machinery engages only on mismatch)
// ---------------------------------------------------------------------

template <typename T>
void
expect_span_eq(const T* want, const T* got, std::size_t n,
               const std::string& what)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!(want[i] == got[i])) {
            ADD_FAILURE() << what << " [" << i << "/" << n
                          << "]: want " << +want[i] << " got " << +got[i];
            return;
        }
}

template <typename T>
void
expect_span_near(const T* want, const T* got, std::size_t n, double tol,
                 const std::string& what)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!(std::fabs(static_cast<double>(want[i]) -
                        static_cast<double>(got[i])) <= tol)) {
            ADD_FAILURE() << what << " [" << i << "/" << n << "]: want "
                          << +want[i] << " got " << +got[i] << " tol "
                          << tol;
            return;
        }
}

// ---------------------------------------------------------------------
// Variant enumeration
// ---------------------------------------------------------------------

/// The registered non-reference variants of `op` that can execute on
/// this host, paired with their exact functions (no fallback: runnable
/// variants resolve to themselves).
template <typename Fn>
std::vector<std::pair<simd::Impl, Fn>>
comparator_variants(const char* op)
{
    const auto& lib = simd::KernelLibrary::instance();
    std::vector<std::pair<simd::Impl, Fn>> out;
    for (simd::Impl impl : lib.registered(op)) {
        if (impl == simd::Impl::kReference || !lib.runnable(op, impl))
            continue;
        out.emplace_back(impl, lib.get<Fn>(op, impl));
    }
    return out;
}

// ---------------------------------------------------------------------
// Dense (D, M) pair comparator
// ---------------------------------------------------------------------

namespace detail {

/// Per-pair sweep parameters, derived from the rep types: the quanta
/// reproduce the magnitudes the historical suites pinned (scale 1/4096
/// on the integer paths, 0.01 / 1e-4 on the mixed float paths), and
/// `c_scale` keeps the adapter-converted AXPY coefficient in each
/// kernel's exercised range.
template <typename D, typename M>
struct DensePairSweep
{
    static constexpr bool kFixedD = !std::is_same_v<D, float>;
    static constexpr bool kFixedM = !std::is_same_v<M, float>;
    /// Bit-exactness is promised only on the all-integer paths; any
    /// float accumulation is order-sensitive.
    static constexpr bool kDotBitExact = kFixedD && kFixedM;

    static constexpr int
    dlim()
    {
        return sizeof(D) == 1 ? 128 : 32767; // dataset rep: full range
    }
    static constexpr int
    mlim()
    {
        return sizeof(M) == 1 ? 127 : 32767; // model rep: symmetric
    }

    static constexpr float
    qx()
    {
        if constexpr (!kFixedD) return 1.0f;
        else if constexpr (!kFixedM) // d8mf / d16mf: dot scale is qx
            return sizeof(D) == 1 ? 0.01f : 1e-4f;
        else
            return 1.0f / 64.0f;
    }
    static constexpr float
    qm()
    {
        if constexpr (!kFixedM) return 1.0f;
        else if constexpr (!kFixedD) // dfm8 / dfm16: dot scale is qm
            return sizeof(M) == 1 ? 0.01f : 1e-4f;
        else
            return 1.0f / 64.0f;
    }

    /// Scales the raw coefficient table so the adapter's converted
    /// coefficient (make_scalar(c*qx/qm), c/qm, or c*qx) lands in the
    /// range the old per-pair suites exercised.
    static constexpr float
    c_scale()
    {
        if constexpr (kFixedD && kFixedM) return 1.0f;
        else if constexpr (!kFixedD && kFixedM)
            return sizeof(M) == 1 ? 3.0f : 0.03f;
        else if constexpr (kFixedD && !kFixedM)
            return sizeof(D) == 1 ? 0.1f : 0.01f;
        else
            return 0.01f;
    }

    /// Extra shrink for the naive baseline's coefficient. The exact
    /// contract saturates the *delta* into int16 (vpaddsw semantics)
    /// before the model add; the naive float baseline clamps only the
    /// final value, so the two agree within a quantum only while the
    /// per-element delta stays in int16 range. D16M16 is the one pair
    /// that can exceed it (|c| * 32767 quanta); halving the table keeps
    /// |c| <= 0.95 there. The vectorized variants still run the full
    /// saturating coefficient.
    static constexpr float
    naive_c_scale()
    {
        return sizeof(D) == 2 && kFixedM && sizeof(M) == 2 ? 0.5f : 1.0f;
    }

    /// The biased-rounding dither block for this pair's AXPY shift.
    static simd::DitherBlock
    biased_block()
    {
        using namespace simd;
        if constexpr (kFixedD && kFixedM) {
            constexpr int shift =
                sizeof(M) == 1 ? (sizeof(D) == 1 ? kShiftD8M8 : kShiftD16M8)
                               : (sizeof(D) == 1 ? kShiftD8M16
                                                 : kShiftD16M16);
            return biased_fixed(shift);
        } else {
            return biased_unit(); // float-dataset and float-model paths
        }
    }
};

template <typename T>
AlignedBuffer<T>
comparator_data(std::size_t n, std::uint32_t seed, int lim)
{
    if constexpr (std::is_same_v<T, float>)
        return comparator_floats(n, seed);
    else
        return comparator_fixed<T>(n, seed, lim);
}

} // namespace detail

/**
 * Sweeps every runnable registered variant of one Table-2 (D, M) pair's
 * dot and AXPY against the reference variant over comparator_dims() x
 * kComparatorOffsets, both dither modes, and a rotating coefficient
 * table, applying the pair's tolerance class.
 */
template <typename D, typename M>
void
compare_dense_pair()
{
    using Ops = simd::DenseOps<D, M>;
    using Names = simd::DensePairNames<D, M>;
    using Sweep = detail::DensePairSweep<D, M>;
    using DotFn = typename Ops::DotFn;
    using AxpyFn = typename Ops::AxpyFn;

    simd::register_dense_kernels();
    const auto& lib = simd::KernelLibrary::instance();
    const auto dots = comparator_variants<DotFn>(Names::dot);
    const auto axpys = comparator_variants<AxpyFn>(Names::axpy);
    // naive + reference are unconditional, so something beyond the
    // reference must be runnable in every build.
    ASSERT_FALSE(dots.empty()) << Names::dot;
    ASSERT_FALSE(axpys.empty()) << Names::axpy;
    const DotFn ref_dot =
        lib.get<DotFn>(Names::dot, simd::Impl::kReference);
    const AxpyFn ref_axpy =
        lib.get<AxpyFn>(Names::axpy, simd::Impl::kReference);

    constexpr float kCs[] = {0.5f, -0.25f, 1.5f, -1.9f, 0.03f, 0.9f};
    const float qx = Sweep::qx(), qm = Sweep::qm();
    const simd::DitherBlock biased = Sweep::biased_block();

    for (std::size_t n : comparator_dims()) {
        for (std::size_t off : kComparatorOffsets) {
            const auto s =
                static_cast<std::uint32_t>(0x9E3779B9u * n + 77u * off);
            const auto xbuf =
                detail::comparator_data<D>(n + off, s + 1, Sweep::dlim());
            const auto wbuf =
                detail::comparator_data<M>(n + off, s + 2, Sweep::mlim());
            const D* x = xbuf.data() + off;
            const M* w = wbuf.data() + off;

            const float r = ref_dot(x, w, n, qx, qm);
            for (const auto& [impl, fn] : dots) {
                const float v = fn(x, w, n, qx, qm);
                const std::string what =
                    std::string(Names::dot) + " " + simd::to_string(impl) +
                    " n=" + std::to_string(n) +
                    " off=" + std::to_string(off);
                if (Sweep::kDotBitExact && simd::is_vectorized(impl))
                    EXPECT_EQ(r, v) << what;
                else
                    EXPECT_NEAR(r, v,
                                1e-4f * (static_cast<float>(n) + 1.0f) +
                                    std::fabs(r) * 1e-4f + 1e-3f)
                        << what;
            }

            const float c = kCs[(n + off) % 6] * Sweep::c_scale();
            for (int mode = 0; mode < 2; ++mode) {
                const simd::DitherBlock d =
                    mode == 0 ? biased : comparator_dither(s + 3);
                // Two coefficient passes: pass 0 runs the full (possibly
                // delta-saturating) coefficient against the exact-contract
                // variants; pass 1 re-derives the reference under the
                // naive baseline's saturation-free coefficient and checks
                // only the naive variant against it.
                for (int pass = 0; pass < 2; ++pass) {
                    const float cc =
                        pass == 0 ? c : c * Sweep::naive_c_scale();
                    auto w_ref = wbuf;
                    ref_axpy(w_ref.data() + off, x, n, cc, qx, qm, d);
                    for (const auto& [impl, fn] : axpys) {
                        const bool naive = impl == simd::Impl::kNaive;
                        if (naive != (pass == 1)) continue;
                        auto w_var = wbuf;
                        fn(w_var.data() + off, x, n, cc, qx, qm, d);
                        const std::string what =
                            std::string(Names::axpy) + " " +
                            simd::to_string(impl) +
                            " n=" + std::to_string(n) +
                            " off=" + std::to_string(off) +
                            (mode == 0 ? " biased" : " unbiased");
                        if constexpr (!Sweep::kFixedM)
                            // Float model: per-element FMA slack.
                            expect_span_near(w_ref.data() + off,
                                             w_var.data() + off, n, 1e-5,
                                             what);
                        else if (simd::is_vectorized(impl))
                            expect_span_eq(w_ref.data() + off,
                                           w_var.data() + off, n, what);
                        else
                            // Naive computes the delta in float: at most
                            // one model quantum per element.
                            expect_span_near(w_ref.data() + off,
                                             w_var.data() + off, n, 1.0,
                                             what);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sparse index-rep comparator
// ---------------------------------------------------------------------

namespace detail {

/// One generated sparse stream: stored indices (absolute coordinates or
/// delta gaps), matching values, and the model span they address.
template <typename I>
struct SparseStream
{
    AlignedBuffer<I> index;
    AlignedBuffer<float> value;
    std::size_t dim = 1;

    SparseStream(std::size_t count, std::size_t off)
        : index(count + off), value(count + off)
    {}
};

/// Distinct strictly-ascending absolute coordinates that fit the index
/// rep — the shape a CSR row slice has after range splitting.
template <typename I>
SparseStream<I>
sparse_absolute_stream(std::size_t nnz, std::size_t off,
                       std::uint32_t seed)
{
    constexpr std::size_t kMaxIndex = std::numeric_limits<I>::max();
    SparseStream<I> stream(nnz, off);
    rng::Xorshift128 gen(seed);
    const std::size_t limit =
        std::min<std::size_t>(kMaxIndex, 4 * nnz + 64);
    const std::size_t gap_cap =
        nnz > 0 && limit >= 2 * nnz
            ? std::max<std::size_t>(1, limit / nnz - 1)
            : 1;
    std::size_t cursor = 0;
    for (std::size_t j = 0; j < nnz; ++j) {
        cursor += j == 0 ? gen() % gap_cap : 1 + gen() % gap_cap;
        stream.index[off + j] = static_cast<I>(cursor);
        stream.value[off + j] = rng::to_unit_float(gen()) * 2.0f - 1.0f;
    }
    stream.dim = cursor + 1;
    return stream;
}

/// Delta-encoded gap stream replicating the dataset builder's padding
/// rule: a gap wider than the rep becomes explicit max-gap entries with
/// zero values (the i8 edge case the paper's footnote 6 implies). The
/// padding gap is the rep's exact maximum for i8/i16; capped for i32,
/// where padding never occurs in practice but large gaps still must
/// decode.
template <typename I>
SparseStream<I>
sparse_delta_stream(std::size_t count, std::size_t off,
                    std::uint32_t seed)
{
    constexpr std::size_t kMaxIndex = std::numeric_limits<I>::max();
    const std::size_t pad_gap = std::min<std::size_t>(kMaxIndex, 65536);
    SparseStream<I> stream(count, off);
    rng::Xorshift128 gen(seed);
    // A handful of padding entries per stream, bounded so the model span
    // (and the comparator's model buffers) stay small at large counts.
    const std::size_t pad_stride = std::max<std::size_t>(5, count / 4);
    std::size_t cursor = 0;
    for (std::size_t j = 0; j < count; ++j) {
        const bool padding = j % pad_stride == pad_stride - 1;
        const std::size_t gap = padding ? pad_gap
                                : j == 0 ? gen() % 3
                                         : 1 + gen() % 19;
        cursor += gap;
        stream.index[off + j] = static_cast<I>(gap);
        stream.value[off + j] =
            padding ? 0.0f : rng::to_unit_float(gen()) * 2.0f - 1.0f;
    }
    stream.dim = cursor + 1;
    return stream;
}

/// A sparse stream's [-1, 1] values at value rep V: scaled to the rep's
/// symmetric range for the integer reps.
template <typename V>
AlignedBuffer<V>
sparse_values(const AlignedBuffer<float>& value)
{
    constexpr float kLim = std::is_same_v<V, float> ? 1.0f
                           : sizeof(V) == 1          ? 127.0f
                                                     : 32767.0f;
    AlignedBuffer<V> out(value.size());
    for (std::size_t j = 0; j < value.size(); ++j)
        out[j] = static_cast<V>(value[j] * kLim);
    return out;
}

} // namespace detail

/**
 * Checks every runnable registered variant of one (I, V, W) family's
 * sparse dot and AXPY against the reference on one stream. `vbuf` holds
 * the stream's values at rep V and `wbuf` a model over its span, both
 * with the stream's element offset. Integer-accumulating dots (fixed
 * values x fixed model) must be bit-exact; fixed-model AXPYs have only
 * the reference variant.
 */
template <typename I, typename V, typename W, typename Stream>
void
compare_sparse_family(const Stream& stream, std::size_t count,
                      std::size_t off, const AlignedBuffer<V>& vbuf,
                      const AlignedBuffer<W>& wbuf,
                      simd::sparse::IndexMode mode, const char* mode_tag)
{
    using Ops = simd::SparseOps<I, V, W>;
    using Names = simd::SparseOpNames<I, V, W>;
    using DotFn = typename Ops::DotFn;
    using AxpyFn = typename Ops::AxpyFn;
    constexpr bool kFloatModel = std::is_same_v<W, float>;
    constexpr bool kDotBitExact =
        std::is_integral_v<V> && std::is_integral_v<W>;

    const auto& lib = simd::KernelLibrary::instance();
    const char* dot_name = Names::dot.c_str();
    const char* axpy_name = Names::axpy.c_str();
    const auto dots = comparator_variants<DotFn>(dot_name);
    const auto axpys = comparator_variants<AxpyFn>(axpy_name);
    ASSERT_FALSE(dots.empty()) << Names::dot;
    ASSERT_EQ(axpys.empty(), !kFloatModel) << Names::axpy;
    const DotFn ref_dot = lib.get<DotFn>(dot_name, simd::Impl::kReference);
    const AxpyFn ref_axpy =
        lib.get<AxpyFn>(axpy_name, simd::Impl::kReference);

    const V* val = vbuf.data() + off;
    const I* idx = stream.index.data() + off;
    const W* w = wbuf.data() + off;
    const std::string where = std::string(" ") + mode_tag +
                              " nnz=" + std::to_string(count) +
                              " off=" + std::to_string(off);

    const float r = ref_dot(val, idx, count, w, 1.0f, mode);
    for (const auto& [impl, fn] : dots) {
        const float v = fn(val, idx, count, w, 1.0f, mode);
        if constexpr (kDotBitExact)
            EXPECT_EQ(r, v) << Names::dot << " " << simd::to_string(impl)
                            << where;
        else
            EXPECT_NEAR(r, v,
                        1e-4f * (static_cast<float>(count) + 1.0f) +
                            std::fabs(r) * 1e-4f + 1e-3f)
                << Names::dot << " " << simd::to_string(impl) << where;
    }

    if constexpr (kFloatModel) {
        constexpr float kCs[] = {0.5f, -0.25f, 1.5f, -1.9f, 0.03f, 0.9f};
        // Keeps cf * value near unit magnitude on the integer value reps.
        constexpr float kScale = std::is_same_v<V, float> ? 1.0f
                                 : sizeof(V) == 1          ? 1.0f / 127.0f
                                                           : 1.0f / 32767.0f;
        const float c = kCs[(count + off) % 6] * kScale;
        const simd::FixedScalar cs{0, 0};
        auto w_ref = wbuf;
        ref_axpy(w_ref.data() + off, val, idx, count, cs, c,
                 simd::biased_unit(), mode);
        for (const auto& [impl, fn] : axpys) {
            auto w_var = wbuf;
            fn(w_var.data() + off, val, idx, count, cs, c,
               simd::biased_unit(), mode);
            expect_span_near(w_ref.data() + off, w_var.data() + off,
                             stream.dim, 1e-5,
                             Names::axpy + " " + simd::to_string(impl) +
                                 where);
        }
    }
}

/**
 * Sweeps every (V, W) family of one index rep over nnz =
 * comparator_dims() (0..129 plus large) x kComparatorOffsets, in both
 * index modes: absolute coordinates (when nnz distinct coordinates fit
 * the rep) and delta-encoded gaps with builder-style max-gap zero
 * padding (the i8 gap-overflow edge case).
 */
template <typename I>
void
compare_sparse_index_rep()
{
    simd::register_sparse_kernels();
    constexpr std::size_t kMaxIndex = std::numeric_limits<I>::max();

    const auto sweep = [&](const auto& stream, std::size_t count,
                           std::size_t off, std::uint32_t seed,
                           simd::sparse::IndexMode mode,
                           const char* mode_tag) {
        // One value and one model buffer per rep, shared by the nine
        // (V, W) families.
        const auto vf = detail::sparse_values<float>(stream.value);
        const auto v8 = detail::sparse_values<std::int8_t>(stream.value);
        const auto v16 = detail::sparse_values<std::int16_t>(stream.value);
        const std::size_t span = stream.dim + off;
        const auto wf = comparator_floats(span, seed + 7);
        const auto w8 = comparator_fixed<std::int8_t>(span, seed + 8, 127);
        const auto w16 =
            comparator_fixed<std::int16_t>(span, seed + 9, 32767);
        const auto each_model = [&](const auto& vbuf) {
            using V = std::remove_cv_t<
                std::remove_pointer_t<decltype(vbuf.data())>>;
            compare_sparse_family<I, V, float>(stream, count, off, vbuf, wf,
                                               mode, mode_tag);
            compare_sparse_family<I, V, std::int8_t>(stream, count, off,
                                                     vbuf, w8, mode,
                                                     mode_tag);
            compare_sparse_family<I, V, std::int16_t>(stream, count, off,
                                                      vbuf, w16, mode,
                                                      mode_tag);
        };
        each_model(vf);
        each_model(v8);
        each_model(v16);
    };

    for (std::size_t nnz : comparator_dims()) {
        for (std::size_t off : kComparatorOffsets) {
            const auto s =
                static_cast<std::uint32_t>(0xC2B2AE35u * nnz + 31u * off);
            // Absolute coordinates only when nnz distinct ones fit.
            if (nnz <= kMaxIndex + 1) {
                const auto stream =
                    detail::sparse_absolute_stream<I>(nnz, off, s + 1);
                sweep(stream, nnz, off, s + 1,
                      simd::sparse::IndexMode::kAbsolute, "abs");
            }
            const auto stream =
                detail::sparse_delta_stream<I>(nnz, off, s + 2);
            sweep(stream, nnz, off, s + 2,
                  simd::sparse::IndexMode::kDelta, "delta");
        }
    }
}

// ---------------------------------------------------------------------
// lowp array-kernel comparator (all variants bit-exact)
// ---------------------------------------------------------------------

namespace detail {

/// Enumerates the runnable non-reference variants of one lowp op and
/// hands each (reference, variant, tag) to `body`. Ops whose only
/// registered variant is the reference (scalar-only builds) simply get
/// zero invocations — the registration itself is still checked.
template <typename Fn, typename Body>
void
for_each_lowp_variant(const char* op, Body&& body)
{
    const auto& lib = simd::KernelLibrary::instance();
    ASSERT_TRUE(lib.runnable(op, simd::Impl::kReference)) << op;
    const Fn ref = lib.get<Fn>(op, simd::Impl::kReference);
    for (const auto& [impl, fn] : comparator_variants<Fn>(op)) {
        std::string tag =
            std::string(op) + " " + simd::to_string(impl);
        body(ref, fn, tag);
    }
}

inline std::string
lowp_where(const std::string& tag, std::size_t n, std::size_t off)
{
    return tag + " n=" + std::to_string(n) + " off=" +
           std::to_string(off);
}

} // namespace detail

/**
 * Sweeps every registered lowp array kernel ("lowp.*") variant against
 * the scalar reference over comparator_dims() x kComparatorOffsets for
 * both integer reps. Everything must be bit-exact — that is the §5.2
 * vectorized-rounding contract.
 */
inline void
compare_lowp_kernels()
{
    lowp::register_lowp_kernels();
    const auto grid8 = lowp::GridSpec::from_fixed(fixed::default_format(8));
    const auto grid16 =
        lowp::GridSpec::from_fixed(fixed::default_format(16));
    const auto sym8 = lowp::GridSpec::symmetric(8, 2.0);

    using QuantizeI8Fn = void (*)(const float*, std::int8_t*, std::size_t,
                                  const lowp::GridSpec&);
    using QuantizeI16Fn = void (*)(const float*, std::int16_t*,
                                   std::size_t, const lowp::GridSpec&);
    using SharedI8Fn = void (*)(const float*, std::int8_t*, std::size_t,
                                const lowp::GridSpec&,
                                const std::uint32_t*);
    using SharedI16Fn = void (*)(const float*, std::int16_t*, std::size_t,
                                 const lowp::GridSpec&,
                                 const std::uint32_t*);
    using DequantizeI8Fn = void (*)(const std::int8_t*, float*,
                                    std::size_t, const lowp::GridSpec&);
    using DequantizeI16Fn = void (*)(const std::int16_t*, float*,
                                     std::size_t, const lowp::GridSpec&);
    using MaxAbsFn = float (*)(const float*, std::size_t);
    using RoundLevelsFn = void (*)(const float*, std::size_t, float,
                                   std::int8_t*, float*, float*);
    using Sign1BitFn = void (*)(const float*, std::size_t, float, float*,
                                float*, std::uint8_t*);
    using QsgdRoundFn = void (*)(const float*, std::size_t, float, int,
                                 const std::uint32_t*, std::uint8_t*,
                                 std::uint8_t*, float*);
    using QsgdDequantizeFn = void (*)(const std::uint8_t*,
                                      const std::uint8_t*, std::size_t,
                                      float, int, float*);

    // One shared 256-bit randomness block (fixed seed) for the shared-
    // rounding kernels.
    std::uint32_t words[8];
    {
        rng::Xorshift128 gen(0xABCDEF);
        for (auto& wd : words) wd = gen();
    }

    for (std::size_t n : comparator_dims()) {
        for (std::size_t off : kComparatorOffsets) {
            const auto s =
                static_cast<std::uint32_t>(0x85EBCA6Bu * n + 13u * off);
            // Inputs straddle the saturation bounds (scale 6 on an
            // 8-bit grid) so the clamp paths are compared too.
            const auto in = comparator_floats(n + off, s, 6.0f);
            const float* x = in.data() + off;

            detail::for_each_lowp_variant<QuantizeI8Fn>(
                "lowp.quantize_biased_i8",
                [&](auto ref, auto fn, const std::string& tag) {
                    AlignedBuffer<std::int8_t> a(n + off), b(n + off);
                    ref(x, a.data() + off, n, grid8);
                    fn(x, b.data() + off, n, grid8);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<QuantizeI16Fn>(
                "lowp.quantize_biased_i16",
                [&](auto ref, auto fn, const std::string& tag) {
                    AlignedBuffer<std::int16_t> a(n + off), b(n + off);
                    ref(x, a.data() + off, n, grid16);
                    fn(x, b.data() + off, n, grid16);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<SharedI8Fn>(
                "lowp.quantize_shared_i8",
                [&](auto ref, auto fn, const std::string& tag) {
                    AlignedBuffer<std::int8_t> a(n + off), b(n + off);
                    ref(x, a.data() + off, n, sym8, words);
                    fn(x, b.data() + off, n, sym8, words);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<SharedI16Fn>(
                "lowp.quantize_shared_i16",
                [&](auto ref, auto fn, const std::string& tag) {
                    AlignedBuffer<std::int16_t> a(n + off), b(n + off);
                    ref(x, a.data() + off, n, grid16, words);
                    fn(x, b.data() + off, n, grid16, words);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<DequantizeI8Fn>(
                "lowp.dequantize_i8",
                [&](auto ref, auto fn, const std::string& tag) {
                    const auto raw =
                        comparator_fixed<std::int8_t>(n + off, s + 4, 128);
                    AlignedBuffer<float> a(n + off), b(n + off);
                    ref(raw.data() + off, a.data() + off, n, grid8);
                    fn(raw.data() + off, b.data() + off, n, grid8);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<DequantizeI16Fn>(
                "lowp.dequantize_i16",
                [&](auto ref, auto fn, const std::string& tag) {
                    const auto raw = comparator_fixed<std::int16_t>(
                        n + off, s + 5, 32767);
                    AlignedBuffer<float> a(n + off), b(n + off);
                    ref(raw.data() + off, a.data() + off, n, grid16);
                    fn(raw.data() + off, b.data() + off, n, grid16);
                    expect_span_eq(a.data() + off, b.data() + off, n,
                                   detail::lowp_where(tag, n, off));
                });
            detail::for_each_lowp_variant<MaxAbsFn>(
                "lowp.max_abs",
                [&](auto ref, auto fn, const std::string& tag) {
                    EXPECT_EQ(ref(x, n), fn(x, n))
                        << detail::lowp_where(tag, n, off);
                });
            detail::for_each_lowp_variant<RoundLevelsFn>(
                "lowp.round_levels_i8",
                [&](auto ref, auto fn, const std::string& tag) {
                    const auto& lib = simd::KernelLibrary::instance();
                    const auto max_abs = lib.get<MaxAbsFn>(
                        "lowp.max_abs", simd::Impl::kReference);
                    const float peak = max_abs(x, n);
                    const float scale =
                        n > 0 && peak > 0 ? peak / 127.0f : 1.0f;
                    AlignedBuffer<std::int8_t> la(n + off), lb(n + off);
                    AlignedBuffer<float> qa(n + off), qb(n + off);
                    AlignedBuffer<float> ra(n + off), rb(n + off);
                    ref(x, n, scale, la.data() + off, qa.data() + off,
                        ra.data() + off);
                    fn(x, n, scale, lb.data() + off, qb.data() + off,
                       rb.data() + off);
                    const auto what = detail::lowp_where(tag, n, off);
                    expect_span_eq(la.data() + off, lb.data() + off, n,
                                   what + " levels");
                    expect_span_eq(qa.data() + off, qb.data() + off, n,
                                   what + " q");
                    expect_span_eq(ra.data() + off, rb.data() + off, n,
                                   what + " residual");
                });
            detail::for_each_lowp_variant<Sign1BitFn>(
                "lowp.quantize_sign_1bit",
                [&](auto ref, auto fn, const std::string& tag) {
                    const std::size_t bytes = (n + 7) / 8;
                    AlignedBuffer<float> qa(n + off), qb(n + off);
                    AlignedBuffer<float> ra(n + off), rb(n + off);
                    std::vector<std::uint8_t> pa(bytes + off, 0),
                        pb(bytes + off, 0);
                    ref(x, n, 0.5f, qa.data() + off, ra.data() + off,
                        pa.data() + off);
                    fn(x, n, 0.5f, qb.data() + off, rb.data() + off,
                       pb.data() + off);
                    const auto what = detail::lowp_where(tag, n, off);
                    expect_span_eq(qa.data() + off, qb.data() + off, n,
                                   what + " q");
                    expect_span_eq(ra.data() + off, rb.data() + off, n,
                                   what + " residual");
                    expect_span_eq(pa.data() + off, pb.data() + off,
                                   bytes, what + " payload");
                });
            // QSGD levels at CsQ2 / CsQ4 / CsQ8 (s = 1, 7, 127). The norm
            // is half of max |x|, so the clamp at s is exercised too.
            std::vector<std::uint32_t> dither(n + off);
            {
                rng::Xorshift128 gen(s + 6);
                for (auto& wd : dither) wd = gen();
            }
            const std::uint32_t* words = dither.data() + off;
            for (const int levels_s : {1, 7, 127}) {
                const float norm = 0.5f * lowp::scalar::max_abs(x, n);
                detail::for_each_lowp_variant<QsgdRoundFn>(
                    "lowp.qsgd_round",
                    [&](auto ref, auto fn, const std::string& tag) {
                        const std::size_t bytes = (n + 7) / 8;
                        AlignedBuffer<std::uint8_t> la(n + off),
                            lb(n + off), sa(bytes + off), sb(bytes + off);
                        AlignedBuffer<float> ra(n + off), rb(n + off);
                        ref(x, n, norm, levels_s, words, la.data() + off,
                            sa.data() + off, ra.data() + off);
                        fn(x, n, norm, levels_s, words, lb.data() + off,
                           sb.data() + off, rb.data() + off);
                        const auto what = detail::lowp_where(tag, n, off) +
                                          " s=" + std::to_string(levels_s);
                        expect_span_eq(la.data() + off, lb.data() + off, n,
                                       what + " levels");
                        expect_span_eq(sa.data() + off, sb.data() + off,
                                       bytes, what + " signs");
                        expect_span_eq(ra.data() + off, rb.data() + off, n,
                                       what + " residual");
                    });
                detail::for_each_lowp_variant<QsgdDequantizeFn>(
                    "lowp.qsgd_dequantize",
                    [&](auto ref, auto fn, const std::string& tag) {
                        std::vector<std::uint8_t> levels(n + off),
                            signs((n + 7) / 8 + off);
                        rng::Xorshift128 gen(s + 7);
                        for (auto& level : levels)
                            level = static_cast<std::uint8_t>(
                                gen() % (levels_s + 1));
                        for (auto& sign : signs)
                            sign = static_cast<std::uint8_t>(gen());
                        AlignedBuffer<float> a(n + off), b(n + off);
                        ref(levels.data() + off, signs.data() + off, n,
                            norm, levels_s, a.data() + off);
                        fn(levels.data() + off, signs.data() + off, n, norm,
                           levels_s, b.data() + off);
                        expect_span_eq(a.data() + off, b.data() + off, n,
                                       detail::lowp_where(tag, n, off) +
                                           " s=" +
                                           std::to_string(levels_s));
                    });
            }
        }
    }
}

} // namespace buckwild::testutil

#endif // BUCKWILD_TESTS_KERNEL_COMPARATOR_H
