/* SpMV kernels for the CSCV reproduction.
 *
 * Style contract (the paper's portability claim, Section IV-E):
 * every kernel is plain scalar C — no intrinsics, no inline assembly —
 * written so the compiler's auto-vectoriser turns the fixed-length
 * contiguous inner loops into wide SIMD (AVX-512 on the build host).
 * The one exception is AVX-512 behind HAVE_VEXPAND (see there), which
 * the CSCV kernels use twice: CSCV-M's 1-wide forward expansion, and the
 * 1-wide adjoints' per-VxG vector products with their transposed sums
 * (the SPC5 baseline's expansion uses it too).  Each keeps a scalar body
 * for every other build, bitwise equal to it.
 * The CSCV inner loops in particular are straight-line multiply-add
 * streams over contiguous memory, which is the entire point of the format.
 *
 * CSCV products: four exported drivers per dtype, one per (variant,
 * direction) — cscv_z_spmm, cscv_m_spmm (forward) and cscv_z_tspmm,
 * cscv_m_tspmm (adjoint, gather-only) — each taking k, the operand's
 * column count; a vector is k == 1.  Every output entry is summed over
 * the same terms in the same order for every k and every thread count,
 * and nothing is contracted into an FMA, so results are bitwise
 * reproducible across batch widths and threads (see the driver notes).
 *
 * Index conventions match the Python side: 32-bit element indices,
 * 64-bit sizes/pointers offsets.
 *
 * Built with: cc -O3 -march=native -fopenmp -fPIC -shared -std=c11
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* The exception to the no-intrinsics rule, taken straight from the paper
 * (Section IV-E): "On Intel platforms, CSCV-M uses the hardware vexpand
 * instructions in AVX-512 for vector expansion; on other platforms,
 * vector expansion is implemented by software code denoted as
 * soft-vexpand".  The CSCV kernels use it twice, both behind
 * __AVX512F__: the 1-wide CSCV-M forward expands each CSCVE, and the
 * 1-wide adjoints of both variants form each VxG's products as one vector
 * (CSCV-M's by one expansion under the VxG's joined masks) and sum W VxGs
 * at once through an in-register transpose.  Every other build runs the
 * scalar bodies. */
#if defined(__AVX512F__)
#include <immintrin.h>
#define HAVE_VEXPAND 1
#endif

#pragma STDC FP_CONTRACT OFF

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* CSR: y[i] = sum_k vals[k] * x[col[k]], k in row i                    */

#define DEFINE_CSR(SUF, T)                                                  \
EXPORT void csr_spmv_##SUF(int64_t m, const int32_t *row_ptr,               \
                           const int32_t *col_idx, const T *vals,           \
                           const T *x, T *y) {                              \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        T acc = (T)0;                                                       \
        for (int32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)               \
            acc += vals[k] * x[col_idx[k]];                                 \
        y[i] = acc;                                                         \
    }                                                                       \
}

DEFINE_CSR(f32, float)
DEFINE_CSR(f64, double)

/* ------------------------------------------------------------------ */
/* CSR SpMM: Y = A X with X (n, k) and Y (m, k), both row-major.        */
/* Each nonzero streams once and fans out across the k RHS lanes — the  */
/* k-loop is contiguous in both X and Y, so it vectorises cleanly and   */
/* the matrix traffic is amortised k ways.                              */

#define DEFINE_CSR_SPMM(SUF, T)                                             \
EXPORT void csr_spmm_##SUF(int64_t m, int64_t k, const int32_t *row_ptr,    \
                           const int32_t *col_idx, const T *vals,           \
                           const T *X, T *Y) {                              \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        T *yr = Y + i * k;                                                  \
        for (int64_t j = 0; j < k; ++j) yr[j] = (T)0;                       \
        for (int32_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {             \
            const T a = vals[p];                                            \
            const T *xr = X + (int64_t)col_idx[p] * k;                      \
            for (int64_t j = 0; j < k; ++j)                                 \
                yr[j] += a * xr[j];                                         \
        }                                                                   \
    }                                                                       \
}

DEFINE_CSR_SPMM(f32, float)
DEFINE_CSR_SPMM(f64, double)

/* ------------------------------------------------------------------ */
/* CSC: paper Algorithm 1 — scatter x_i * vals into y (single thread:   */
/* the scatter races under naive OpenMP, matching why CSC is hard).     */

#define DEFINE_CSC(SUF, T)                                                  \
EXPORT void csc_spmv_##SUF(int64_t m, int64_t n, const int32_t *col_ptr,    \
                           const int32_t *row_idx, const T *vals,           \
                           const T *x, T *y) {                              \
    memset(y, 0, (size_t)m * sizeof(T));                                    \
    for (int64_t i = 0; i < n; ++i) {                                       \
        const T xi = x[i];                                                  \
        for (int32_t k = col_ptr[i]; k < col_ptr[i + 1]; ++k)               \
            y[row_idx[k]] += xi * vals[k];                                  \
    }                                                                       \
}

DEFINE_CSC(f32, float)
DEFINE_CSC(f64, double)

/* ------------------------------------------------------------------ */
/* ELL: column-major slabs, width w, padded with col=-1                 */

#define DEFINE_ELL(SUF, T)                                                  \
EXPORT void ell_spmv_##SUF(int64_t m, int64_t width, const int32_t *cols,   \
                           const T *vals, const T *x, T *y) {               \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        T acc = (T)0;                                                       \
        for (int64_t k = 0; k < width; ++k) {                               \
            const int64_t idx = k * m + i; /* column-major */               \
            const int32_t c = cols[idx];                                    \
            if (c >= 0) acc += vals[idx] * x[c];                            \
        }                                                                   \
        y[i] = acc;                                                         \
    }                                                                       \
}

DEFINE_ELL(f32, float)
DEFINE_ELL(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV-Z block kernel: VxGs of s_vxg CSCVEs, each s_vvec wide.         */
/* values laid out VxG-contiguous; ytilde access is contiguous, so the  */
/* inner loop is a pure vector FMA — no gather, no scatter.             */

#define DEFINE_CSCV_Z_BLOCK(SUF, T)                                         \
static void cscv_z_block_##SUF(int64_t num_vxg, int64_t vxg_len,            \
                               const int32_t *vxg_col,                      \
                               const int32_t *vxg_start, const T *values,   \
                               const T *x, T *ytilde) {                     \
    for (int64_t g = 0; g < num_vxg; ++g) {                                 \
        const T xv = x[vxg_col[g]];                                         \
        const T *v = values + g * vxg_len;                                  \
        T *yt = ytilde + vxg_start[g];                                      \
        for (int64_t k = 0; k < vxg_len; ++k)                               \
            yt[k] += xv * v[k];                                             \
    }                                                                       \
}

DEFINE_CSCV_Z_BLOCK(f32, float)
DEFINE_CSCV_Z_BLOCK(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV-M block kernel: packed nonzeros + per-CSCVE bitmask.            */
/* Hardware vexpand (AVX-512) when available, soft-vexpand otherwise.   */

/* Only the lanes of set mask bits are loaded and stored, and each takes
 * a multiply then an add, exactly as the scalar loops do: the file is
 * built as ISO C (-std=c11), where GCC contracts nothing into FMAs, and
 * the FP_CONTRACT pragma above keeps clang from contracting either.  So
 * the 1-wide CSCV-M product is bitwise the k-wide kernel's column, and a
 * lane with no nonzero is never touched (no 0 * inf = NaN, no -0 turned
 * to +0). */
#ifdef HAVE_VEXPAND
static inline void vexpand_axpy_f32(float *yt, const float *pv, uint32_t mask,
                                    float xv, int64_t s_vvec) {
    const __m512 xvv = _mm512_set1_ps(xv);
    for (int64_t k = 0; k < s_vvec; k += 16) {
        const int chunk = (s_vvec - k) >= 16 ? 16 : (int)(s_vvec - k);
        const __mmask16 vm =
            chunk == 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << chunk) - 1u);
        const __mmask16 em = (__mmask16)((mask >> k) & vm);
        const __m512 vals = _mm512_maskz_expandloadu_ps(em, pv);
        const __m512 yv = _mm512_maskz_loadu_ps(em, yt + k);
        _mm512_mask_storeu_ps(yt + k, em,
                              _mm512_add_ps(yv, _mm512_mul_ps(xvv, vals)));
        pv += _mm_popcnt_u32((unsigned)em);
    }
}

static inline void vexpand_axpy_f64(double *yt, const double *pv, uint32_t mask,
                                    double xv, int64_t s_vvec) {
    const __m512d xvv = _mm512_set1_pd(xv);
    for (int64_t k = 0; k < s_vvec; k += 8) {
        const int chunk = (s_vvec - k) >= 8 ? 8 : (int)(s_vvec - k);
        const __mmask8 vm =
            chunk == 8 ? (__mmask8)0xFF : (__mmask8)((1u << chunk) - 1u);
        const __mmask8 em = (__mmask8)((mask >> k) & vm);
        const __m512d vals = _mm512_maskz_expandloadu_pd(em, pv);
        const __m512d yv = _mm512_maskz_loadu_pd(em, yt + k);
        _mm512_mask_storeu_pd(yt + k, em,
                              _mm512_add_pd(yv, _mm512_mul_pd(xvv, vals)));
        pv += _mm_popcnt_u32((unsigned)em);
    }
}
#endif

/* One (column, start, voff) triple per VxG; s_vxg masks per VxG with
 * empty CSCVE slots holding mask 0 — the VxG-level index compression the
 * paper credits for the 0.25x index volume. */
#define DEFINE_CSCV_M_BLOCK(SUF, T)                                         \
static void cscv_m_block_##SUF(int64_t num_vxg, int64_t s_vxg,              \
                               int64_t s_vvec, const int32_t *vxg_col,      \
                               const int32_t *vxg_start,                    \
                               const int64_t *vxg_voff,                     \
                               const uint32_t *vxg_masks, const T *packed,  \
                               const T *x, T *ytilde) {                     \
    for (int64_t g = 0; g < num_vxg; ++g) {                                 \
        const T xv = x[vxg_col[g]];                                         \
        const T *pv = packed + vxg_voff[g];                                 \
        T *yt0 = ytilde + vxg_start[g];                                     \
        const uint32_t *gm = vxg_masks + g * s_vxg;                         \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            const uint32_t mask = gm[e];                                    \
            if (!mask) continue;                                            \
            T *yt = yt0 + e * s_vvec;                                       \
            CSCV_M_EXPAND_##SUF                                             \
            pv += POPCOUNT32(mask);                                         \
        }                                                                   \
    }                                                                       \
}

#ifdef __GNUC__
#define POPCOUNT32(x) __builtin_popcount((unsigned)(x))
#else
static inline int popcount32_sw(uint32_t v) {
    int c = 0;
    while (v) { v &= v - 1; ++c; }
    return c;
}
#define POPCOUNT32(x) popcount32_sw(x)
#endif

#ifdef HAVE_VEXPAND
#define CSCV_M_EXPAND_f32 vexpand_axpy_f32(yt, pv, mask, xv, s_vvec);
#define CSCV_M_EXPAND_f64 vexpand_axpy_f64(yt, pv, mask, xv, s_vvec);
#else
/* soft-vexpand: scalar expansion of packed values against the mask */
#define CSCV_M_SOFT_EXPAND                                                  \
        int64_t p = 0;                                                      \
        for (int64_t k = 0; k < s_vvec; ++k) {                              \
            if (mask & (1u << k)) {                                         \
                yt[k] += xv * pv[p];                                        \
                ++p;                                                        \
            }                                                               \
        }
#define CSCV_M_EXPAND_f32 CSCV_M_SOFT_EXPAND
#define CSCV_M_EXPAND_f64 CSCV_M_SOFT_EXPAND
#endif

DEFINE_CSCV_M_BLOCK(f32, float)
DEFINE_CSCV_M_BLOCK(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV-Z k-wide block kernel: the VxG stream applied to k RHS at once. */
/* X is (n, k) row-major, Y is (m, k) row-major; ytilde holds k lanes   */
/* per slot (slot-major), so the scatter through the IOBLR map moves    */
/* contiguous k-vectors.  The matrix (values + index) streams once for  */
/* all k columns — the whole point of batching.                         */

#define DEFINE_CSCV_Z_SPMM_BLOCK(SUF, T)                                    \
static void cscv_z_block_spmm_##SUF(int64_t num_vxg, int64_t vxg_len,       \
                                    int64_t k, const int32_t *vxg_col,      \
                                    const int32_t *vxg_start,               \
                                    const T *values, const T *X,            \
                                    T *ytilde) {                            \
    for (int64_t g = 0; g < num_vxg; ++g) {                                 \
        const T *xr = X + (int64_t)vxg_col[g] * k;                          \
        const T *v = values + g * vxg_len;                                  \
        T *yt = ytilde + (int64_t)vxg_start[g] * k;                         \
        for (int64_t s = 0; s < vxg_len; ++s) {                             \
            const T vs = v[s];                                              \
            T *yts = yt + s * k;                                            \
            for (int64_t j = 0; j < k; ++j)                                 \
                yts[j] += vs * xr[j];                                       \
        }                                                                   \
    }                                                                       \
}

DEFINE_CSCV_Z_SPMM_BLOCK(f32, float)
DEFINE_CSCV_Z_SPMM_BLOCK(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV-M k-wide block kernel: packed values applied to k RHS at once.  */
/* No vexpand here even on AVX-512: with k lanes per slot each packed   */
/* value already feeds a contiguous k-wide FMA against X's row, so the  */
/* expansion degenerates to a walk over the set mask bits.              */

#ifdef __GNUC__
#define CTZ32(x) __builtin_ctz((unsigned)(x))
#else
static inline int ctz32_sw(uint32_t v) {
    int c = 0;
    while (!(v & 1u)) { v >>= 1; ++c; }
    return c;
}
#define CTZ32(x) ctz32_sw(x)
#endif

#define DEFINE_CSCV_M_SPMM_BLOCK(SUF, T)                                    \
static void cscv_m_block_spmm_##SUF(int64_t num_vxg, int64_t s_vxg,         \
                                    int64_t s_vvec, int64_t k,              \
                                    const int32_t *vxg_col,                 \
                                    const int32_t *vxg_start,               \
                                    const int64_t *vxg_voff,                \
                                    const uint32_t *vxg_masks,              \
                                    const T *packed, const T *X,            \
                                    T *ytilde) {                            \
    for (int64_t g = 0; g < num_vxg; ++g) {                                 \
        const T *xr = X + (int64_t)vxg_col[g] * k;                          \
        const T *pv = packed + vxg_voff[g];                                 \
        T *yt0 = ytilde + (int64_t)vxg_start[g] * k;                        \
        const uint32_t *gm = vxg_masks + g * s_vxg;                         \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            T *yte = yt0 + e * s_vvec * k;                                  \
            for (uint32_t mask = gm[e]; mask; mask &= mask - 1u) {          \
                const T a = *pv++;                                          \
                T *yts = yte + (int64_t)CTZ32(mask) * k;                    \
                for (int64_t j = 0; j < k; ++j)                             \
                    yts[j] += a * xr[j];                                    \
            }                                                               \
        }                                                                   \
    }                                                                       \
}

DEFINE_CSCV_M_SPMM_BLOCK(f32, float)
DEFINE_CSCV_M_SPMM_BLOCK(f64, double)

/* ------------------------------------------------------------------ */
/* Full CSCV drivers: one per (variant, direction), any k.              */
/*                                                                      */
/* Layouts (built by repro.core.builder):                               */
/*   blk_vxg_ptr[num_blocks+1] : VxG ranges per block                   */
/*   vxg_col[g]   : global x index of the VxG's column                  */
/*   vxg_start[g] : offset into the block's ytilde scratch              */
/*   blk_ysize[b] : ytilde length of block b                            */
/*   blk_map_ptr[num_blocks+1], map[] : ytilde pos -> global y (or -1)  */
/*   part_ptr[num_parts+1], order[] : the blocks of each owner part     */
/*   X (·, k) and Y (·, k) row-major; a vector is the k == 1 case       */
/*                                                                      */
/* OpenMP threads take whole owner parts, each owning a disjoint set of */
/* output entries: a view group owns its sinogram rows (forward), a     */
/* tile row owns its pixels (adjoint).  A part visits its blocks in     */
/* ascending block id and writes straight into the output, so every     */
/* entry gets its sums in the serial order and the result is bitwise    */
/* the same for any thread count.  The output must hold zeros on entry. */
/*                                                                      */
/* k == 1 runs a 1-wide body (the block kernels above with vexpand for  */
/* CSCV-M; in the adjoint, a dot per VxG, W VxGs at a time on AVX-512); */
/* k > 1 runs the k-wide body.  Both sum every output entry over the    */
/* same terms in the same order, so column j of a k-wide product is     */
/* bitwise its solo run.                                                */

/* Forward body: per block, zero K ytilde lanes per slot, run the block */
/* kernel call passed as the trailing arguments, then scatter-add the   */
/* lanes through the map.                                               */
#define CSCV_FORWARD(T, K, ...)                                             \
    _Pragma("omp parallel num_threads(nthreads)")                           \
    {                                                                       \
        T *ytilde = (T *)malloc((size_t)(max_ysize * (K)) * sizeof(T));     \
        _Pragma("omp for schedule(dynamic, 1)")                             \
        for (int64_t q = 0; q < num_parts; ++q) {                           \
            for (int64_t i = part_ptr[q]; i < part_ptr[q + 1]; ++i) {       \
                const int64_t b = order[i];                                 \
                const int64_t ysz = blk_ysize[b];                           \
                memset(ytilde, 0, (size_t)(ysz * (K)) * sizeof(T));         \
                const int64_t g0 = blk_vxg_ptr[b];                          \
                const int64_t ng = blk_vxg_ptr[b + 1] - g0;                 \
                __VA_ARGS__;                                                \
                const int32_t *bmap = map + blk_map_ptr[b];                 \
                for (int64_t p = 0; p < ysz; ++p) {                         \
                    const int32_t t = bmap[p];                              \
                    if (t < 0) continue;                                    \
                    T *yr = Y + (int64_t)t * (K);                           \
                    const T *yt = ytilde + p * (K);                         \
                    for (int64_t j = 0; j < (K); ++j) yr[j] += yt[j];       \
                }                                                           \
            }                                                               \
        }                                                                   \
        free(ytilde);                                                       \
    }

/* Adjoint (CT back-projection) body, gather-only: per block, gather K  */
/* lanes per ytilde slot through the map (the forward reorder run in    */
/* reverse; 0 where the map holds -1), then run the block statement     */
/* passed as the trailing arguments on the block's VxGs [g0, g1).  The  */
/* scratch starts zeroed and carries CSCV_LANES entries past its end,   */
/* so a k-wide statement may read a full lane chunk past its last live  */
/* lane.                                                                */
#define CSCV_LANES 8
#define CSCV_ADJOINT(T, K, ...)                                             \
    _Pragma("omp parallel num_threads(nthreads)")                           \
    {                                                                       \
        T *ytilde = (T *)calloc((size_t)(max_ysize * (K) + CSCV_LANES),    \
                                sizeof(T));                                 \
        _Pragma("omp for schedule(dynamic, 1)")                             \
        for (int64_t q = 0; q < num_parts; ++q) {                           \
            for (int64_t i = part_ptr[q]; i < part_ptr[q + 1]; ++i) {       \
                const int64_t b = order[i];                                 \
                const int64_t ysz = blk_ysize[b];                           \
                const int32_t *bmap = map + blk_map_ptr[b];                 \
                for (int64_t p = 0; p < ysz; ++p) {                         \
                    const int32_t t = bmap[p];                              \
                    T *yt = ytilde + p * (K);                               \
                    if (t < 0) {                                            \
                        for (int64_t j = 0; j < (K); ++j) yt[j] = (T)0;     \
                    } else {                                                \
                        const T *xr = X + (int64_t)t * (K);                 \
                        for (int64_t j = 0; j < (K); ++j) yt[j] = xr[j];    \
                    }                                                       \
                }                                                           \
                const int64_t g0 = blk_vxg_ptr[b], g1 = blk_vxg_ptr[b + 1]; \
                __VA_ARGS__;                                                \
            }                                                               \
        }                                                                   \
        free(ytilde);                                                       \
    }

/* Runs the per-VxG statement passed as the trailing arguments on each  */
/* VxG g of [g0, g1) in ascending order.  It sees the VxG's K-wide      */
/* lanes `yt` and its output row `yr`.                                  */
#define CSCV_EACH_VXG(T, K, ...)                                            \
    for (int64_t g = g0; g < g1; ++g) {                                     \
        const T *yt = ytilde + (int64_t)vxg_start[g] * (K);                 \
        T *yr = Y + (int64_t)vxg_col[g] * (K);                              \
        __VA_ARGS__;                                                        \
    }

/* Per-VxG adjoint statements.  The 1-wide ones keep a scalar           */
/* accumulator; the k-wide ones take the lanes CSCV_LANES at a time     */
/* into a fixed-size accumulator (held in registers), each lane summed  */
/* in the same order, then add the live lanes into the output row.      */
/* CSCV-M walks `packed` in stream order: CSCVEs ascending, then set    */
/* mask bits ascending.                                                 */
#define CSCV_Z_DOT1(T)                                                      \
    const T *v = values + g * vxg_len;                                      \
    T a = (T)0;                                                             \
    for (int64_t l = 0; l < vxg_len; ++l) a += v[l] * yt[l];                \
    yr[0] += a
#define CSCV_Z_DOTK(T)                                                      \
    const T *v = values + g * vxg_len;                                      \
    for (int64_t j0 = 0; j0 < k; j0 += CSCV_LANES) {                        \
        T acc[CSCV_LANES] = {0};                                            \
        for (int64_t l = 0; l < vxg_len; ++l) {                             \
            const T vl = v[l];                                              \
            const T *ytl = yt + l * k + j0;                                 \
            for (int j = 0; j < CSCV_LANES; ++j) acc[j] += vl * ytl[j];     \
        }                                                                   \
        const int64_t w = k - j0 < CSCV_LANES ? k - j0 : CSCV_LANES;        \
        for (int64_t j = 0; j < w; ++j) yr[j0 + j] += acc[j];               \
    }
#define CSCV_M_DOT1(T)                                                      \
    const T *pv = packed + vxg_voff[g];                                     \
    const uint32_t *gm = vxg_masks + g * s_vxg;                             \
    T a = (T)0;                                                             \
    for (int64_t e = 0; e < s_vxg; ++e) {                                   \
        const T *yte = yt + e * s_vvec;                                     \
        for (uint32_t mask = gm[e]; mask; mask &= mask - 1u)                \
            a += *pv++ * yte[CTZ32(mask)];                                  \
    }                                                                       \
    yr[0] += a
#define CSCV_M_DOTK(T)                                                      \
    const uint32_t *gm = vxg_masks + g * s_vxg;                             \
    for (int64_t j0 = 0; j0 < k; j0 += CSCV_LANES) {                        \
        const T *pv = packed + vxg_voff[g];                                 \
        T acc[CSCV_LANES] = {0};                                            \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            const T *yte = yt + e * s_vvec * k + j0;                        \
            for (uint32_t mask = gm[e]; mask; mask &= mask - 1u) {          \
                const T a = *pv++;                                          \
                const T *ytl = yte + (int64_t)CTZ32(mask) * k;              \
                for (int j = 0; j < CSCV_LANES; ++j) acc[j] += a * ytl[j];  \
            }                                                               \
        }                                                                   \
        const int64_t w = k - j0 < CSCV_LANES ? k - j0 : CSCV_LANES;        \
        for (int64_t j = 0; j < w; ++j) yr[j0 + j] += acc[j];               \
    }

#define CSCV_PARTS                                                          \
        int64_t k, int64_t num_parts, const int64_t *part_ptr,              \
        const int64_t *order, const int64_t *blk_vxg_ptr,                   \
        const int32_t *vxg_col, const int32_t *vxg_start
#define CSCV_Z_VALUES(T) const T *values, int64_t vxg_len
#define CSCV_M_VALUES(T)                                                    \
        const int64_t *vxg_voff, const uint32_t *vxg_masks,                 \
        const T *packed, int64_t s_vxg, int64_t s_vvec
#define CSCV_MAPS(T)                                                        \
        const int64_t *blk_ysize, const int64_t *blk_map_ptr,               \
        const int32_t *map, const T *X, T *Y, int64_t max_ysize,            \
        int nthreads

/* 1-wide adjoint block bodies: the VxGs [g0, g1) of one block, their   */
/* sums added into Y in ascending g.                                    */
#define CSCV_TBLOCK_ARGS(T)                                                 \
        int64_t g0, int64_t g1, const int32_t *vxg_col,                     \
        const int32_t *vxg_start, const T *ytilde, T *Y
#define CSCV_Z_TBLOCK(SUF, T)                                               \
static void cscv_z_tblock_##SUF(CSCV_TBLOCK_ARGS(T), CSCV_Z_VALUES(T))
#define CSCV_M_TBLOCK(SUF, T)                                               \
static void cscv_m_tblock_##SUF(CSCV_TBLOCK_ARGS(T), CSCV_M_VALUES(T))

#ifdef HAVE_VEXPAND
/* AVX-512 bodies, the second use of the vexpand exception: a VxG's     */
/* products form one vector per W lanes (W = 16 floats or 8 doubles),   */
/* CSCV-M's expanded from the packed stream under the VxG's joined      */
/* CSCVE masks with unset lanes exactly +0.  W VxGs are taken at once,  */
/* their product vectors transposed in registers, and lanes l = 0, 1,   */
/* ... added in ascending order into one accumulator that holds a VxG   */
/* per vector lane.  So each VxG's sum is the scalar dot's, term by     */
/* term: padding lanes and CSCV-M's unset lanes add +0 to a running sum */
/* that starts at +0 and so is never -0, which leaves it unchanged.     */
/* A block's last W VxGs may be fewer than W; the missing rows are zero */
/* and their sums are never written.                                    */

/* In-place transposes of a W x W tile: r[i][l] -> r[l][i]. */
static inline void transpose_f32(__m512 r[16]) {
    __m512 t[16];
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 16; i += 4) {
        for (int j = 0; j < 2; ++j) {
            r[i + 2 * j] = _mm512_castpd_ps(_mm512_unpacklo_pd(
                _mm512_castps_pd(t[i + j]), _mm512_castps_pd(t[i + j + 2])));
            r[i + 2 * j + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(
                _mm512_castps_pd(t[i + j]), _mm512_castps_pd(t[i + j + 2])));
        }
    }
    /* r[4q + c] holds column c + 4 * lane128 of rows 4q .. 4q + 3 */
    for (int q = 0; q < 2; ++q) {
        for (int c = 0; c < 4; ++c) {
            t[8 * q + c] = _mm512_shuffle_f32x4(r[8 * q + c], r[8 * q + c + 4],
                                                0x88);
            t[8 * q + c + 4] = _mm512_shuffle_f32x4(r[8 * q + c],
                                                    r[8 * q + c + 4], 0xDD);
        }
    }
    for (int c = 0; c < 8; ++c) {
        r[c] = _mm512_shuffle_f32x4(t[c], t[c + 8], 0x88);
        r[c + 8] = _mm512_shuffle_f32x4(t[c], t[c + 8], 0xDD);
    }
}

static inline void transpose_f64(__m512d r[8]) {
    __m512d t[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm512_unpacklo_pd(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_pd(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        for (int j = 0; j < 2; ++j) {
            r[i + j] = _mm512_shuffle_f64x2(t[i + j], t[i + j + 2], 0x88);
            r[i + j + 2] = _mm512_shuffle_f64x2(t[i + j], t[i + j + 2], 0xDD);
        }
    }
    /* r[4h + c] holds columns c and c + 4 of rows 4h .. 4h + 3 */
    for (int c = 0; c < 4; ++c) {
        t[c] = _mm512_shuffle_f64x2(r[c], r[c + 4], 0x88);
        t[c + 4] = _mm512_shuffle_f64x2(r[c], r[c + 4], 0xDD);
    }
    for (int c = 0; c < 8; ++c) r[c] = t[c];
}

/* Bits [c, c + w) of a VxG's joined CSCVE masks, in which bit          */
/* e * s_vvec + b is bit b of CSCVE e's mask.                           */
static inline uint32_t vxg_chunk_mask(const uint32_t *gm, int64_t s_vxg,
                                      int64_t s_vvec, int64_t c, int w) {
    uint64_t m = 0;
    for (int64_t e = c / s_vvec; e < s_vxg && e * s_vvec < c + w; ++e) {
        const int64_t off = e * s_vvec - c;
        m |= off >= 0 ? (uint64_t)gm[e] << off : (uint64_t)gm[e] >> -off;
    }
    return (uint32_t)m & ((1u << w) - 1u);
}

/* The shared body: W lanes of vector type V under mask type MASK,      */
/* intrinsics suffix PS.  SETUP(T, W) runs once per W VxGs; ROW(PS,     */
/* MASK) sets r[i] to VxG gi's products of lanes [c, c + W), masked by  */
/* `live` (no lane for a missing row).                                  */
#define CSCV_TSUM(T, V, W, MASK, PS, SUF, LEN, SETUP, ROW)                  \
    for (int64_t g = g0; g < g1; g += W) {                                  \
        const int n = g1 - g < W ? (int)(g1 - g) : W;                       \
        SETUP(T, W)                                                         \
        V acc = _mm512_setzero_##PS();                                      \
        for (int64_t c = 0; c < (LEN); c += W) {                            \
            const int w = (LEN) - c < W ? (int)((LEN) - c) : W;             \
            const MASK lanes = (MASK)((1u << w) - 1u);                      \
            V r[W];                                                         \
            for (int i = 0; i < W; ++i) {                                   \
                const int64_t gi = g + (i < n ? i : 0);                     \
                const MASK live = i < n ? lanes : (MASK)0;                  \
                ROW(PS, MASK)                                               \
            }                                                               \
            transpose_##SUF(r);                                             \
            for (int l = 0; l < W; ++l) acc = _mm512_add_##PS(acc, r[l]);   \
        }                                                                   \
        T sum[W];                                                           \
        _mm512_storeu_##PS(sum, acc);                                       \
        for (int i = 0; i < n; ++i) Y[vxg_col[g + i]] += sum[i];            \
    }

#define CSCV_Z_SETUP(T, W)
#define CSCV_Z_ROW(PS, MASK)                                                \
    r[i] = _mm512_mul_##PS(                                                 \
        _mm512_maskz_loadu_##PS(live, values + gi * vxg_len + c),           \
        _mm512_maskz_loadu_##PS(live, ytilde + vxg_start[gi] + c));
#define CSCV_M_SETUP(T, W)                                                  \
    const T *pv[W];                                                         \
    for (int i = 0; i < W; ++i) pv[i] = packed + vxg_voff[g + (i < n ? i : 0)];
#define CSCV_M_ROW(PS, MASK)                                                \
    const MASK em = live & (MASK)vxg_chunk_mask(vxg_masks + gi * s_vxg,     \
                                                s_vxg, s_vvec, c, w);       \
    r[i] = _mm512_maskz_mul_##PS(em,                                        \
        _mm512_maskz_expandloadu_##PS(em, pv[i]),                           \
        _mm512_maskz_loadu_##PS(em, ytilde + vxg_start[gi] + c));          \
    pv[i] += _mm_popcnt_u32((unsigned)em);

#define DEFINE_CSCV_TBLOCKS(SUF, T, V, W, MASK, PS)                         \
CSCV_Z_TBLOCK(SUF, T) {                                                     \
    CSCV_TSUM(T, V, W, MASK, PS, SUF, vxg_len, CSCV_Z_SETUP, CSCV_Z_ROW)    \
}                                                                           \
CSCV_M_TBLOCK(SUF, T) {                                                     \
    CSCV_TSUM(T, V, W, MASK, PS, SUF, s_vxg * s_vvec, CSCV_M_SETUP,         \
              CSCV_M_ROW)                                                   \
}

DEFINE_CSCV_TBLOCKS(f32, float, __m512, 16, __mmask16, ps)
DEFINE_CSCV_TBLOCKS(f64, double, __m512d, 8, __mmask8, pd)
#else
/* Portable bodies: the scalar dot of each VxG in turn. */
#define DEFINE_CSCV_TBLOCKS(SUF, T)                                         \
CSCV_Z_TBLOCK(SUF, T) { CSCV_EACH_VXG(T, 1, CSCV_Z_DOT1(T)); }              \
CSCV_M_TBLOCK(SUF, T) { CSCV_EACH_VXG(T, 1, CSCV_M_DOT1(T)); }

DEFINE_CSCV_TBLOCKS(f32, float)
DEFINE_CSCV_TBLOCKS(f64, double)
#endif

#define DEFINE_CSCV_DRIVERS(SUF, T)                                         \
EXPORT void cscv_z_spmm_##SUF(CSCV_PARTS, CSCV_Z_VALUES(T),                 \
                              CSCV_MAPS(T)) {                               \
    if (k == 1) {                                                           \
        CSCV_FORWARD(T, 1, cscv_z_block_##SUF(ng, vxg_len, vxg_col + g0,    \
                     vxg_start + g0, values + g0 * vxg_len, X, ytilde))     \
    } else {                                                                \
        CSCV_FORWARD(T, k, cscv_z_block_spmm_##SUF(ng, vxg_len, k,          \
                     vxg_col + g0, vxg_start + g0, values + g0 * vxg_len,   \
                     X, ytilde))                                            \
    }                                                                       \
}                                                                           \
EXPORT void cscv_m_spmm_##SUF(CSCV_PARTS, CSCV_M_VALUES(T),                 \
                              CSCV_MAPS(T)) {                               \
    if (k == 1) {                                                           \
        CSCV_FORWARD(T, 1, cscv_m_block_##SUF(ng, s_vxg, s_vvec,            \
                     vxg_col + g0, vxg_start + g0, vxg_voff + g0,           \
                     vxg_masks + g0 * s_vxg, packed, X, ytilde))            \
    } else {                                                                \
        CSCV_FORWARD(T, k, cscv_m_block_spmm_##SUF(ng, s_vxg, s_vvec, k,    \
                     vxg_col + g0, vxg_start + g0, vxg_voff + g0,           \
                     vxg_masks + g0 * s_vxg, packed, X, ytilde))            \
    }                                                                       \
}                                                                           \
EXPORT void cscv_z_tspmm_##SUF(CSCV_PARTS, CSCV_Z_VALUES(T),                \
                               CSCV_MAPS(T)) {                              \
    if (k == 1) {                                                           \
        CSCV_ADJOINT(T, 1, cscv_z_tblock_##SUF(g0, g1, vxg_col, vxg_start,  \
                     ytilde, Y, values, vxg_len))                           \
    } else {                                                                \
        CSCV_ADJOINT(T, k, CSCV_EACH_VXG(T, k, CSCV_Z_DOTK(T)))             \
    }                                                                       \
}                                                                           \
EXPORT void cscv_m_tspmm_##SUF(CSCV_PARTS, CSCV_M_VALUES(T),                \
                               CSCV_MAPS(T)) {                              \
    if (k == 1) {                                                           \
        CSCV_ADJOINT(T, 1, cscv_m_tblock_##SUF(g0, g1, vxg_col, vxg_start,  \
                     ytilde, Y, vxg_voff, vxg_masks, packed, s_vxg,         \
                     s_vvec))                                               \
    } else {                                                                \
        CSCV_ADJOINT(T, k, CSCV_EACH_VXG(T, k, CSCV_M_DOTK(T)))             \
    }                                                                       \
}

DEFINE_CSCV_DRIVERS(f32, float)
DEFINE_CSCV_DRIVERS(f64, double)

/* ------------------------------------------------------------------ */
/* SPC5-style beta(1,c) row-block kernel: per block one row id, a       */
/* bitmask over c consecutive columns, packed values (no padding).      */

#ifdef HAVE_VEXPAND
static inline float spc5_dot_f32(const float *pv, const float *xp,
                                 uint32_t mask, int64_t width) {
    __m512 acc = _mm512_setzero_ps();
    for (int64_t k = 0; k < width; k += 16) {
        const int chunk = (width - k) >= 16 ? 16 : (int)(width - k);
        const __mmask16 vm =
            chunk == 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << chunk) - 1u);
        const __mmask16 em = (__mmask16)((mask >> k) & vm);
        const __m512 vals = _mm512_maskz_expandloadu_ps(em, pv);
        const __m512 xv = _mm512_maskz_loadu_ps(em, xp + k);
        acc = _mm512_fmadd_ps(vals, xv, acc);
        pv += _mm_popcnt_u32((unsigned)em);
    }
    return _mm512_reduce_add_ps(acc);
}

static inline double spc5_dot_f64(const double *pv, const double *xp,
                                  uint32_t mask, int64_t width) {
    __m512d acc = _mm512_setzero_pd();
    for (int64_t k = 0; k < width; k += 8) {
        const int chunk = (width - k) >= 8 ? 8 : (int)(width - k);
        const __mmask8 vm =
            chunk == 8 ? (__mmask8)0xFF : (__mmask8)((1u << chunk) - 1u);
        const __mmask8 em = (__mmask8)((mask >> k) & vm);
        const __m512d vals = _mm512_maskz_expandloadu_pd(em, pv);
        const __m512d xv = _mm512_maskz_loadu_pd(em, xp + k);
        acc = _mm512_fmadd_pd(vals, xv, acc);
        pv += _mm_popcnt_u32((unsigned)em);
    }
    return _mm512_reduce_add_pd(acc);
}
#else
#define DEFINE_SPC5_DOT(SUF, T)                                             \
static inline T spc5_dot_##SUF(const T *pv, const T *xp, uint32_t mask,     \
                               int64_t width) {                             \
    T acc = (T)0;                                                           \
    int64_t p = 0;                                                          \
    for (int64_t k = 0; k < width; ++k) {                                   \
        if (mask & (1u << k)) {                                             \
            acc += pv[p] * xp[k];                                           \
            ++p;                                                            \
        }                                                                   \
    }                                                                       \
    return acc;                                                             \
}
DEFINE_SPC5_DOT(f32, float)
DEFINE_SPC5_DOT(f64, double)
#endif

#define DEFINE_SPC5(SUF, T)                                                 \
EXPORT void spc5_spmv_##SUF(int64_t num_blocks, const int32_t *blk_row,     \
                            const int32_t *blk_col, const uint32_t *masks,  \
                            const int64_t *voff, const T *packed,           \
                            int64_t blk_width, const T *x, T *y,            \
                            int64_t m) {                                    \
    memset(y, 0, (size_t)m * sizeof(T));                                    \
    for (int64_t b = 0; b < num_blocks; ++b) {                              \
        y[blk_row[b]] += spc5_dot_##SUF(packed + voff[b], x + blk_col[b],   \
                                        masks[b], blk_width);               \
    }                                                                       \
}

DEFINE_SPC5(f32, float)
DEFINE_SPC5(f64, double)

/* ------------------------------------------------------------------ */
/* Projector sweep kernels: geometry -> COO triplets for a view range.  */
/*                                                                      */
/* Each kernel fills caller-allocated (rows, cols, vals) buffers with   */
/* the nonzeros of views [v0, v1) and returns how many it wrote, or -1  */
/* when `cap` would overflow (the Python side allocates from a          */
/* conservative per-view bound, so -1 means a bug, not a retry).        */
/* Kernels are single-threaded per call and hold no global state: the   */
/* Python sweep partitions the view axis over a thread pool and ctypes  */
/* releases the GIL for the duration of each call.  All arithmetic is   */
/* double precision regardless of the target matrix dtype; the sweep    */
/* casts values once at the end.                                        */
/*                                                                      */
/* Geometry conventions mirror geometry/parallel_beam.py: pixel (i, j)  */
/* has centre x = (j - (n-1)/2) ps, y = ((n-1)/2 - i) ps; detector bin  */
/* b covers s in [(b - B/2) ds, (b + 1 - B/2) ds); sinogram row =       */
/* view * B + bin; pixel column = i * n + j.                            */

/* Trapezoid footprint CDF — the closed form of projector_strip.py,
 * kept region-by-region identical so C and NumPy values agree to
 * rounding. */
static double trapezoid_cdf(double t, double r1, double r2,
                            double h, double ramp_w) {
    if (t >= r2) return 1.0;
    if (t <= -r2) return 0.0;
    if (t < -r1) return 0.5 * h / ramp_w * (t + r2) * (t + r2);
    if (t <= r1) return 0.5 * h * (r2 - r1) + h * (t + r1);
    return 1.0 - 0.5 * h / ramp_w * (r2 - t) * (r2 - t);
}

EXPORT int64_t pixel_footprint_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double half = (n - 1) / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * pixel_size;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * pixel_size;
                const double s = x * ct + y * st;
                const double f = s / bin_spacing + num_bins / 2.0 - 0.5;
                const double b0 = floor(f);
                const double w1 = f - b0;
                const int64_t b = (int64_t)b0;
                const int64_t col = i * n + j;
                /* lower bin, weight 1 - w1 */
                if (b >= 0 && b < num_bins && 1.0 - w1 > 0.0) {
                    if (w >= cap) return -1;
                    rows[w] = row0 + b;
                    cols[w] = col;
                    vals[w] = (1.0 - w1) * pixel_size;
                    ++w;
                }
                /* upper bin, weight w1 */
                if (b + 1 >= 0 && b + 1 < num_bins && w1 > 0.0) {
                    if (w >= cap) return -1;
                    rows[w] = row0 + b + 1;
                    cols[w] = col;
                    vals[w] = w1 * pixel_size;
                    ++w;
                }
            }
        }
    }
    return w;
}

EXPORT int64_t strip_footprint_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double eps = 1e-12;
    const double half = (n - 1) / 2.0;
    const double ps = pixel_size, ds = bin_spacing;
    const double area_per_ds = ps * ps / ds;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const double a = fabs(ct) * ps, b = fabs(st) * ps;
        const double r1 = fabs(a - b) / 2.0, r2 = (a + b) / 2.0;
        const double h = 1.0 / (r1 + r2);
        const double ramp_w = fmax(r2 - r1, 1e-300);
        const int64_t span = (int64_t)ceil(2.0 * r2 / ds) + 1;
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * ps;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * ps;
                const double s = x * ct + y * st;
                const int64_t first =
                    (int64_t)floor((s - r2) / ds + num_bins / 2.0);
                double prev =
                    trapezoid_cdf((first - num_bins / 2.0) * ds - s,
                                  r1, r2, h, ramp_w);
                const int64_t col = i * n + j;
                for (int64_t k = 0; k < span; ++k) {
                    const double edge =
                        (first + k + 1 - num_bins / 2.0) * ds - s;
                    const double chi = trapezoid_cdf(edge, r1, r2, h, ramp_w);
                    const double val = (chi - prev) * area_per_ds;
                    prev = chi;
                    const int64_t bin = first + k;
                    if (val > eps && bin >= 0 && bin < num_bins) {
                        if (w >= cap) return -1;
                        rows[w] = row0 + bin;
                        cols[w] = col;
                        vals[w] = val;
                        ++w;
                    }
                }
            }
        }
    }
    return w;
}

EXPORT int64_t siddon_trace_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double ps = pixel_size;
    const double half = n * ps / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const double dx = -st, dy = ct;
        for (int64_t bin = 0; bin < num_bins; ++bin) {
            const double s = (bin + 0.5 - num_bins / 2.0) * bin_spacing;
            const double ox = s * ct, oy = s * st;
            /* box clip, same order and tolerances as _trace_ray */
            double t_lo = -1e300, t_hi = 1e300;
            int miss = 0;
            const double o2[2] = {ox, oy}, d2[2] = {dx, dy};
            for (int axis = 0; axis < 2; ++axis) {
                const double o = o2[axis], dd = d2[axis];
                if (fabs(dd) < 1e-15) {
                    if (o < -half || o > half) { miss = 1; break; }
                } else {
                    double t0 = (-half - o) / dd, t1 = (half - o) / dd;
                    if (t0 > t1) { const double tmp = t0; t0 = t1; t1 = tmp; }
                    if (t0 > t_lo) t_lo = t0;
                    if (t1 < t_hi) t_hi = t1;
                }
            }
            if (miss || t_hi <= t_lo) continue;
            /* Merge the ascending x- and y-crossing parameter streams
             * (tx_k = ((-half + k ps) - ox) / dx and likewise ty) between
             * t_lo and t_hi; each merged segment lies in one pixel,
             * classified by its midpoint exactly like the NumPy tracer. */
            const int have_x = fabs(dx) > 1e-15, have_y = fabs(dy) > 1e-15;
            int64_t kx = dx > 0 ? 0 : n, ky = dy > 0 ? 0 : n;
            const int64_t sx = dx > 0 ? 1 : -1, sy = dy > 0 ? 1 : -1;
            double next_x = 1e300, next_y = 1e300;
            if (have_x) {
                while (kx >= 0 && kx <= n) {
                    const double t = ((-half + kx * ps) - ox) / dx;
                    if (t > t_lo) { if (t < t_hi) next_x = t; break; }
                    kx += sx;
                }
            }
            if (have_y) {
                while (ky >= 0 && ky <= n) {
                    const double t = ((-half + ky * ps) - oy) / dy;
                    if (t > t_lo) { if (t < t_hi) next_y = t; break; }
                    ky += sy;
                }
            }
            const int64_t row = v * num_bins + bin;
            double t_prev = t_lo;
            for (;;) {
                double t_cur = t_hi;
                if (next_x < t_cur) t_cur = next_x;
                if (next_y < t_cur) t_cur = next_y;
                const double seg = t_cur - t_prev;
                if (seg > 1e-12) {
                    const double mid = (t_prev + t_cur) / 2.0;
                    const double mx = ox + mid * dx, my = oy + mid * dy;
                    const int64_t j = (int64_t)floor((mx + half) / ps);
                    const int64_t ib = (int64_t)floor((my + half) / ps);
                    const int64_t i = (n - 1) - ib; /* rows from the top */
                    if (j >= 0 && j < n && i >= 0 && i < n) {
                        if (w >= cap) return -1;
                        rows[w] = row;
                        cols[w] = i * n + j;
                        vals[w] = seg;
                        ++w;
                    }
                }
                if (t_cur >= t_hi) break;
                t_prev = t_cur;
                if (next_x == t_cur) {
                    kx += sx;
                    next_x = 1e300;
                    if (have_x && kx >= 0 && kx <= n) {
                        const double t = ((-half + kx * ps) - ox) / dx;
                        if (t < t_hi) next_x = t;
                    }
                }
                if (next_y == t_cur) {
                    ky += sy;
                    next_y = 1e300;
                    if (have_y && ky >= 0 && ky <= n) {
                        const double t = ((-half + ky * ps) - oy) / dy;
                        if (t < t_hi) next_y = t;
                    }
                }
            }
        }
    }
    return w;
}

EXPORT int64_t fan_strip_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg, double pixel_size,
        double source_radius, double fan_angle_deg,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double pi = 3.141592653589793;
    const double eps = 1e-12;
    const double half = (n - 1) / 2.0;
    const double ps = pixel_size;
    const double pitch = fan_angle_deg * deg2rad / num_bins;
    const double halfdiag = ps * 1.4142135623730951 / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double beta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double srcx = source_radius * cos(beta);
        const double srcy = source_radius * sin(beta);
        const double central = beta + pi;
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * ps;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * ps;
                const double ddx = x - srcx, ddy = y - srcy;
                /* signed fan angle, wrapped to (-pi, pi] like numpy mod */
                double g = atan2(ddy, ddx) - central;
                g = fmod(g + pi, 2.0 * pi);
                if (g < 0) g += 2.0 * pi;
                g -= pi;
                const double dist = hypot(ddx, ddy);
                const double wa = atan2(halfdiag, dist);
                const double f_lo = (g - wa) / pitch + num_bins / 2.0;
                const double f_hi = (g + wa) / pitch + num_bins / 2.0;
                const int64_t first = (int64_t)floor(f_lo);
                const double width = fmax(f_hi - f_lo, eps);
                const int64_t span = (int64_t)ceil(f_hi - f_lo) + 1;
                const int64_t col = i * n + j;
                for (int64_t k = 0; k < span; ++k) {
                    const int64_t b = first + k;
                    double overlap =
                        fmin(f_hi, (double)(b + 1)) - fmax(f_lo, (double)b);
                    if (overlap < 0.0) overlap = 0.0;
                    const double val = overlap / width * ps;
                    if (val > eps && b >= 0 && b < num_bins) {
                        if (w >= cap) return -1;
                        rows[w] = row0 + b;
                        cols[w] = col;
                        vals[w] = val;
                        ++w;
                    }
                }
            }
        }
    }
    return w;
}

/* ------------------------------------------------------------------ */
/* Utility: OpenMP thread control.  The blocked CSCV drivers receive an
 * explicit nthreads argument, but the plain `omp parallel for` kernels
 * (CSR/CSC/ELL SpMV, CSR SpMM) run at the library-wide default -- which
 * ignores `runtime.threads` unless the host process sets it here.       */

EXPORT int kernels_omp_max_threads(void) {
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

EXPORT void kernels_set_omp_threads(int nthreads) {
#ifdef _OPENMP
    if (nthreads >= 1) omp_set_num_threads(nthreads);
#else
    (void)nthreads;
#endif
}

EXPORT int kernels_abi_version(void) { return 8; }
