/**
 * @file
 * Registry facade for the sparse kernels.
 *
 * Every sparse dot and AXPY in the tree goes through here: the cluster
 * tier's float gradient path (worker minibatch dots, shard
 * gather-scatter applies), the core engine's fixed-point Hogwild! loop,
 * and serve-side sparse scoring. The *index stream* is stored at one of
 * the lowp index precisions (i8 / i16 / i32, absolute or delta-encoded —
 * paper §3 + footnote 6). SparseOps<I, V, W> mirrors DenseOps: per-rep
 * vtables of registry-resolved function pointers, one slot per `Impl`,
 * resolved once per process, so the hot path is a single indirect call.
 *
 * Variant tiers (sparse kernels are gather/scatter bound, so the ladder
 * is short — Fig 4b is exactly the warning that wide SIMD can lose here):
 *   - kReference: the scalar loops from simd/sparse_kernels.h (the
 *     semantic contract; double / int64 accumulation for dot);
 *   - kAvx2: the "hand-optimized" tier — 4-way unrolled independent
 *     accumulators for absolute indices (dot, and the float-model AXPY),
 *     falling back to the scalar loop for delta streams (gap decoding
 *     carries a loop dependence). Fixed-model AXPYs have no unrolled
 *     form; every tier resolves them to the reference.
 * Both tiers are portable C++; the kAvx2 registration exists so the
 * forced-tier comparator and fuzz sweeps exercise the unrolled path like
 * every dense op, and so a genuinely vectorized gather variant can slot
 * in later without touching callers.
 */
#ifndef BUCKWILD_SIMD_SPARSE_OPS_H
#define BUCKWILD_SIMD_SPARSE_OPS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "simd/ops.h"
#include "simd/registry.h"
#include "simd/sparse_kernels.h"

namespace buckwild::simd {

/**
 * Typed sparse kernels for index rep I, value rep V and model rep W —
 * every sparse dot/AXPY in the tree: the float/float gradient path (the
 * defaults) and the core engine's and serve engine's fixed-point reps
 * (V, W in {int8, int16, float}, the Table-2 pairs).
 */
template <typename I, typename V = float, typename W = float>
struct SparseOps
{
    /// Registry-normalized signatures: exactly sparse::dot / axpy's.
    /// `scale` multiplies the dot result (qx*qm for fixed x fixed, the
    /// one quantum for mixed, 1.0 for float x float). The AXPY takes
    /// `cs` (fixed model, fixed values), `cf` (float values or float
    /// model) and the rounding dither; see sparse::axpy.
    using DotFn = float (*)(const V*, const I*, std::size_t, const W*,
                            float, sparse::IndexMode);
    using AxpyFn = void (*)(W*, const V*, const I*, std::size_t,
                            FixedScalar, float, const DitherBlock&,
                            sparse::IndexMode);

    struct Vtable
    {
        DotFn dot[kImplCount];
        AxpyFn axpy[kImplCount];
    };

    /// The per-(I, V, W) kernel table, resolved once per process from
    /// the KernelLibrary (defined in sparse_ops.cpp for all 27 reps).
    static const Vtable& vtable();

    static float
    dot(Impl impl, const V* val, const I* idx, std::size_t nnz, const W* w,
        float scale, sparse::IndexMode mode)
    {
        return vtable().dot[impl_index(impl)](val, idx, nnz, w, scale,
                                              mode);
    }

    static void
    axpy(Impl impl, W* w, const V* val, const I* idx, std::size_t nnz,
         FixedScalar cs, float cf, const DitherBlock& dither,
         sparse::IndexMode mode)
    {
        vtable().axpy[impl_index(impl)](w, val, idx, nnz, cs, cf, dither,
                                        mode);
    }

    /// Float-model AXPY: w[k] += c * val[j].
    static void
    axpy(Impl impl, W* w, const V* val, const I* idx, std::size_t nnz,
         float c, sparse::IndexMode mode)
        requires std::is_same_v<W, float>
    {
        axpy(impl, w, val, idx, nnz, FixedScalar{0, 0}, c, biased_unit(),
             mode);
    }

    // Ambient dispatch: the per-process resolver's pick, honoring the
    // BUCKWILD_KERNEL_IMPL / force_impl() override at call time.
    static float
    dot(const V* val, const I* idx, std::size_t nnz, const W* w,
        float scale, sparse::IndexMode mode)
    {
        return dot(best_impl(), val, idx, nnz, w, scale, mode);
    }

    static void
    axpy(W* w, const V* val, const I* idx, std::size_t nnz, float c,
         sparse::IndexMode mode)
        requires std::is_same_v<W, float>
    {
        axpy(best_impl(), w, val, idx, nnz, c, mode);
    }
};

/// Registers the sparse op family ("simd.sparse.dot_dfmf_i32", ...) into
/// the KernelLibrary. Idempotent, called implicitly by vtable resolution.
void register_sparse_kernels();

/// Resolves every SparseOps vtable now — same rationale as
/// warm_dense_kernels(): keep one-time registration out of RPC deadlines.
void warm_sparse_kernels();

/// Index-rep suffix of the registry op names ("i8", "i16", "i32").
template <typename I>
struct SparseIndexNames;

#define BUCKWILD_SPARSE_INDEX_NAMES(I, SUFFIX)                             \
    template <>                                                            \
    struct SparseIndexNames<I>                                             \
    {                                                                      \
        static constexpr const char* suffix = #SUFFIX;                     \
    };

BUCKWILD_SPARSE_INDEX_NAMES(std::uint8_t, i8)
BUCKWILD_SPARSE_INDEX_NAMES(std::uint16_t, i16)
BUCKWILD_SPARSE_INDEX_NAMES(std::uint32_t, i32)

#undef BUCKWILD_SPARSE_INDEX_NAMES

/// Registry op names for one (I, V, W) family: "simd.sparse.dot_" +
/// the (V, W) pair suffix of DensePairNames + "_" + the index suffix,
/// e.g. "simd.sparse.axpy_d8m16_i16", "simd.sparse.dot_dfmf_i32".
template <typename I, typename V = float, typename W = float>
struct SparseOpNames
{
    static inline const std::string dot =
        std::string("simd.sparse.dot_") + DensePairNames<V, W>::suffix +
        "_" + SparseIndexNames<I>::suffix;
    static inline const std::string axpy =
        std::string("simd.sparse.axpy_") + DensePairNames<V, W>::suffix +
        "_" + SparseIndexNames<I>::suffix;
};

} // namespace buckwild::simd

#endif // BUCKWILD_SIMD_SPARSE_OPS_H
