#ifndef GTER_MATRIX_MASKED_MULTIPLY_H_
#define GTER_MATRIX_MASKED_MULTIPLY_H_

#include "gter/common/exec_context.h"
#include "gter/matrix/csr_matrix.h"

namespace gter {

/// The sparse kernel behind CliqueRank's recurrence
///   M^k = M_t × (M^{k-1} ⊙ M_n).
///
/// Entries of M^k off the adjacency pattern M_n are annihilated by the
/// Hadamard mask at the next step and never contribute to the accumulated
/// matching probability (which is read only on graph edges), so the whole
/// iteration can be confined to the structural pattern of M_n.
///
/// `ComputeMaskedProductCsr` computes, for every structural entry (i, j) of
/// `pattern` (= M_n, values ignored):
///
///   out[pos(i,j)] = Σ_k trans[i,k] · prev[k,j]
///
/// where M^{k-1} stays in CSR form (`prev_values`, parallel to `pattern`'s
/// value array, zero off the pattern). Output is written into
/// `out_values`, parallel to the same value array. Row i is computed
/// Gustavson style — gather trans-row-i-scaled pattern rows into an O(n)
/// dense accumulator, read the pattern positions out, re-zero the
/// accumulator (entry by entry, or in one contiguous clear once the row
/// gathered at least n entries) — so peak extra memory is O(n) per worker
/// chunk, never O(n²).
///
/// Cost: Σ_{(i,j)∈pattern} nnz(trans row i) — linear in pattern edges times
/// average degree, vs. n³ for the dense product.
///
/// Each output entry sums over ascending k of trans row i, the same order
/// at every SIMD level (the AVX2 twin vectorizes only the exact products),
/// so the result is bit-identical across levels and thread counts.
/// Parallelized over row chunks via `ctx.pool`, dispatched at
/// `ctx.simd_level()`, polled per row chunk; on cancellation returns early
/// with `out_values` partially written.
Status ComputeMaskedProductCsr(const CsrMatrix& trans,
                               const double* prev_values,
                               const CsrMatrix& pattern, double* out_values,
                               const ExecContext& ctx = DefaultExecContext());

/// Scatters CSR `values` (parallel to `pattern`'s value array) into the
/// dense n×n row-major buffer `dense`, zeroing previous pattern positions
/// first. Off-pattern entries of `dense` are assumed to already be zero and
/// are not touched.
void ScatterToDense(const CsrMatrix& pattern, const double* values,
                    double* dense);

}  // namespace gter

#endif  // GTER_MATRIX_MASKED_MULTIPLY_H_
