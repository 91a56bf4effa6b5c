/**
 * @file
 * Sparse kernel registration and per-rep vtable resolution.
 *
 * Two backends (reference scalar, unrolled "avx2 tier") x three index
 * reps (i8 / i16 / i32) x three value reps x three model reps x {dot,
 * axpy} register into the KernelLibrary under stable op names with the
 * SparseOps signatures. The reference variants are sparse::dot / axpy
 * themselves. The unrolled tier only applies to absolute index streams —
 * delta decoding carries a loop dependence — so its adapters fall back
 * to the scalar loop for IndexMode::kDelta rather than mis-decoding.
 */
#include "simd/sparse_ops.h"

namespace buckwild::simd {

namespace {

template <typename I, typename V, typename W>
float
unrolled_dot(const V* val, const I* idx, std::size_t nnz, const W* w,
             float scale, sparse::IndexMode mode)
{
    if (mode == sparse::IndexMode::kDelta)
        return sparse::dot<V, W, I>(val, idx, nnz, w, scale, mode);
    return sparse::dot_unrolled<V, W, I>(val, idx, nnz, w, scale);
}

/// 4-way unrolled float-model scatter. The stores stay in program order
/// (each statement is a separate read-modify-write), so duplicate
/// indices — which the gradient path never produces, but the contract
/// tolerates — still apply sequentially.
template <typename I, typename V>
void
unrolled_axpy(float* w, const V* val, const I* idx, std::size_t nnz,
              FixedScalar cs, float cf, const DitherBlock& dither,
              sparse::IndexMode mode)
{
    if (mode == sparse::IndexMode::kDelta) {
        sparse::axpy<V, float, I>(w, val, idx, nnz, cs, cf, dither, mode);
        return;
    }
    std::size_t j = 0;
    for (; j + 4 <= nnz; j += 4) {
        w[idx[j]] += cf * static_cast<float>(val[j]);
        w[idx[j + 1]] += cf * static_cast<float>(val[j + 1]);
        w[idx[j + 2]] += cf * static_cast<float>(val[j + 2]);
        w[idx[j + 3]] += cf * static_cast<float>(val[j + 3]);
    }
    for (; j < nnz; ++j) w[idx[j]] += cf * static_cast<float>(val[j]);
}

template <typename I, typename V, typename W>
void
register_family(KernelLibrary& lib)
{
    using Names = SparseOpNames<I, V, W>;
    lib.add(Names::dot, Impl::kReference,
            reinterpret_cast<void*>(&sparse::dot<V, W, I>), nullptr);
    lib.add(Names::axpy, Impl::kReference,
            reinterpret_cast<void*>(&sparse::axpy<V, W, I>), nullptr);
    // The unrolled tier is portable C++ (no intrinsics — sparse access
    // is gather bound), registered under kAvx2 so forced-tier sweeps and
    // the fallback chain treat it like the dense hand-optimized tier.
    lib.add(Names::dot, Impl::kAvx2,
            reinterpret_cast<void*>(&unrolled_dot<I, V, W>), nullptr);
    if constexpr (std::is_same_v<W, float>)
        lib.add(Names::axpy, Impl::kAvx2,
                reinterpret_cast<void*>(&unrolled_axpy<I, V>), nullptr);
}

template <typename I, typename V>
void
register_value_rep(KernelLibrary& lib)
{
    register_family<I, V, std::int8_t>(lib);
    register_family<I, V, std::int16_t>(lib);
    register_family<I, V, float>(lib);
}

template <typename I>
void
register_index_rep(KernelLibrary& lib)
{
    register_value_rep<I, std::int8_t>(lib);
    register_value_rep<I, std::int16_t>(lib);
    register_value_rep<I, float>(lib);
}

} // namespace

void
register_sparse_kernels()
{
    static const bool once = [] {
        KernelLibrary& lib = KernelLibrary::instance();
        register_index_rep<std::uint8_t>(lib);
        register_index_rep<std::uint16_t>(lib);
        register_index_rep<std::uint32_t>(lib);
        return true;
    }();
    (void)once;
}

template <typename I, typename V, typename W>
const typename SparseOps<I, V, W>::Vtable&
SparseOps<I, V, W>::vtable()
{
    static const Vtable vt = [] {
        register_sparse_kernels();
        const KernelLibrary& lib = KernelLibrary::instance();
        using Names = SparseOpNames<I, V, W>;
        Vtable t;
        for (Impl impl : kAllImpls) {
            t.dot[impl_index(impl)] = lib.get<DotFn>(Names::dot, impl);
            t.axpy[impl_index(impl)] = lib.get<AxpyFn>(Names::axpy, impl);
        }
        return t;
    }();
    return vt;
}

#define BUCKWILD_SPARSE_VTABLE(I, V, W)                                    \
    template const SparseOps<I, V, W>::Vtable& SparseOps<I, V, W>::vtable();
#define BUCKWILD_SPARSE_VTABLES_FOR_VALUE(I, V)                            \
    BUCKWILD_SPARSE_VTABLE(I, V, std::int8_t)                              \
    BUCKWILD_SPARSE_VTABLE(I, V, std::int16_t)                             \
    BUCKWILD_SPARSE_VTABLE(I, V, float)
#define BUCKWILD_SPARSE_VTABLES_FOR_INDEX(I)                               \
    BUCKWILD_SPARSE_VTABLES_FOR_VALUE(I, std::int8_t)                      \
    BUCKWILD_SPARSE_VTABLES_FOR_VALUE(I, std::int16_t)                     \
    BUCKWILD_SPARSE_VTABLES_FOR_VALUE(I, float)

BUCKWILD_SPARSE_VTABLES_FOR_INDEX(std::uint8_t)
BUCKWILD_SPARSE_VTABLES_FOR_INDEX(std::uint16_t)
BUCKWILD_SPARSE_VTABLES_FOR_INDEX(std::uint32_t)

#undef BUCKWILD_SPARSE_VTABLES_FOR_INDEX
#undef BUCKWILD_SPARSE_VTABLES_FOR_VALUE
#undef BUCKWILD_SPARSE_VTABLE

namespace {

template <typename I, typename V>
void
warm_value_rep()
{
    (void)SparseOps<I, V, std::int8_t>::vtable();
    (void)SparseOps<I, V, std::int16_t>::vtable();
    (void)SparseOps<I, V, float>::vtable();
}

template <typename I>
void
warm_index_rep()
{
    warm_value_rep<I, std::int8_t>();
    warm_value_rep<I, std::int16_t>();
    warm_value_rep<I, float>();
}

} // namespace

void
warm_sparse_kernels()
{
    warm_index_rep<std::uint8_t>();
    warm_index_rep<std::uint16_t>();
    warm_index_rep<std::uint32_t>();
}

} // namespace buckwild::simd
