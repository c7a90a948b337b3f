"""Block-sparse matrix storage, kernels and performance models.

The paper's related-work section (II-C) surveys *structured* sparsity as
the one regime where sparse GPU kernels beat cuBLAS: Gray et al. design
block-sparse kernels, and Chen et al.'s column-vector-sparse encoding
"provides speedup over cuBLAS at sparsities as low as 70% at mixed
precision". This module builds that substrate:

* :class:`BlockSparseMatrix` — BSR-style storage (dense blocks at block
  granularity) with exact dense/ CSR interop and a vectorised block spMM;
* :class:`ColumnVectorSparse` — Chen et al.'s (v x 1) column-vector
  encoding, a special case with its own packed layout;
* :data:`BLOCKSPARSE_FP16` / :func:`block_crossover_sparsity` — a
  calibrated tensor-core performance model reproducing the ~70% crossover
  claim, the structured counterpart of Figure 1's unstructured models.

SAMO itself deliberately avoids sparse kernels (Figure 1); this module
exists to *quantify* that design choice — the ablation bench compares
unstructured (Sputnik-class), block-sparse (Chen-class) and dense
(cuBLAS) execution under one roof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_models import CUBLAS_FP16, GemmModel, V100_PEAK_FP16

__all__ = [
    "BlockSparseMatrix",
    "ColumnVectorSparse",
    "BLOCKSPARSE_FP16",
    "block_sparse_time",
    "block_crossover_sparsity",
]


class BlockSparseMatrix:
    """A 2-D matrix that is sparse at the granularity of dense blocks.

    Storage follows BSR: ``blocks[k]`` is the dense ``(bh, bw)`` content of
    the k-th stored block, located at block-row ``brow[k]`` / block-column
    ``bcol[k]``. Blocks are kept in row-major block order.

    Parameters
    ----------
    brow, bcol:
        Block coordinates, one entry per stored block.
    blocks:
        Array of shape ``(n_blocks, bh, bw)``.
    shape:
        Full matrix shape; must be divisible by the block shape.
    """

    def __init__(
        self,
        brow: np.ndarray,
        bcol: np.ndarray,
        blocks: np.ndarray,
        shape: tuple[int, int],
    ):
        blocks = np.asarray(blocks)
        if blocks.ndim != 3:
            raise ValueError(f"blocks must be (n, bh, bw), got shape {blocks.shape}")
        n, bh, bw = blocks.shape
        if shape[0] % bh or shape[1] % bw:
            raise ValueError(f"shape {shape} not divisible by block ({bh}, {bw})")
        brow = np.asarray(brow, dtype=np.int32)
        bcol = np.asarray(bcol, dtype=np.int32)
        if brow.shape != (n,) or bcol.shape != (n,):
            raise ValueError("brow/bcol must have one entry per block")
        grid = (shape[0] // bh, shape[1] // bw)
        if n and (brow.min() < 0 or brow.max() >= grid[0] or bcol.min() < 0 or bcol.max() >= grid[1]):
            raise ValueError(f"block coordinate out of range for grid {grid}")
        flat = brow.astype(np.int64) * grid[1] + bcol
        if np.unique(flat).size != n:
            raise ValueError("duplicate block coordinates")
        order = np.argsort(flat, kind="stable")
        self.brow = brow[order]
        self.bcol = bcol[order]
        self.blocks = blocks[order]
        self.shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (bh, bw)
        self.grid = grid

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, block_shape: tuple[int, int]
    ) -> "BlockSparseMatrix":
        """Capture every block containing at least one non-zero."""
        dense = np.asarray(dense)
        bh, bw = block_shape
        if dense.shape[0] % bh or dense.shape[1] % bw:
            raise ValueError(f"dense shape {dense.shape} not divisible by {block_shape}")
        gr, gc = dense.shape[0] // bh, dense.shape[1] // bw
        # (gr, gc, bh, bw) view of the block grid.
        tiles = dense.reshape(gr, bh, gc, bw).transpose(0, 2, 1, 3)
        nonzero = np.abs(tiles).sum(axis=(2, 3)) > 0
        brow, bcol = np.nonzero(nonzero)
        return cls(brow, bcol, tiles[brow, bcol].copy(), dense.shape)

    @classmethod
    def random(
        cls,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        sparsity: float,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> "BlockSparseMatrix":
        """Uniformly random block pattern at the requested *block* sparsity."""
        rng = rng or np.random.default_rng()
        bh, bw = block_shape
        if shape[0] % bh or shape[1] % bw:
            raise ValueError(f"shape {shape} not divisible by block {block_shape}")
        gr, gc = shape[0] // bh, shape[1] // bw
        n_total = gr * gc
        n_keep = n_total - int(round(sparsity * n_total))
        flat = np.sort(rng.choice(n_total, size=n_keep, replace=False))
        blocks = rng.standard_normal((n_keep, bh, bw)).astype(dtype)
        return cls(flat // gc, flat % gc, blocks, shape)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def nnz(self) -> int:
        """Stored element count (block granularity, zeros inside blocks count)."""
        bh, bw = self.block_shape
        return self.n_blocks * bh * bw

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    def storage_bytes(self) -> int:
        """Block values + per-block coordinates."""
        return self.blocks.nbytes + self.brow.nbytes + self.bcol.nbytes

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.blocks.dtype)
        bh, bw = self.block_shape
        for k in range(self.n_blocks):  # few blocks; assembly is not hot
            r, c = self.brow[k] * bh, self.bcol[k] * bw
            out[r : r + bh, c : c + bw] = self.blocks[k]
        return out

    def to_scipy_bsr(self) -> "scipy.sparse.bsr_matrix":
        """SciPy BSR view (real block-sparse CPU kernel)."""
        from scipy import sparse as sp  # deferred: only matrix builders need SciPy

        gr, gc = self.grid
        counts = np.bincount(self.brow, minlength=gr)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return sp.bsr_matrix(
            (self.blocks, self.bcol, indptr),
            shape=self.shape,
            blocksize=self.block_shape,
        )

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` with A block-sparse, vectorised over stored blocks.

        One batched GEMM over the stored blocks plus a scatter-add into
        block rows — the NumPy rendering of a block-sparse GPU kernel
        (dense tensor-core math inside blocks, coordinates outside).
        """
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dim mismatch: A is {self.shape}, x has {x.shape[0]} rows")
        bh, bw = self.block_shape
        out_cols = x.shape[1] if x.ndim == 2 else 1
        x2 = x.reshape(self.shape[1], out_cols)
        # Gather the needed x slabs per stored block: (n_blocks, bw, out_cols)
        slabs = x2.reshape(self.grid[1], bw, out_cols)[self.bcol]
        partial = np.einsum("kij,kjl->kil", self.blocks, slabs)  # (n, bh, out)
        out = np.zeros((self.grid[0], bh, out_cols), dtype=partial.dtype)
        np.add.at(out, self.brow, partial)
        result = out.reshape(self.shape[0], out_cols)
        return result if x.ndim == 2 else result.reshape(self.shape[0])

    def __repr__(self) -> str:
        return (
            f"BlockSparseMatrix(shape={self.shape}, block={self.block_shape}, "
            f"blocks={self.n_blocks}/{self.grid[0] * self.grid[1]})"
        )


class ColumnVectorSparse:
    """Chen et al.'s column-vector-sparse encoding: (v x 1) blocks.

    Kept vectors are packed contiguously per column, which is what gives
    the GPU kernel its coalesced loads. Here the packed layout is a
    ``(n_vectors, v)`` array plus per-vector (vector-row, column)
    coordinates — a :class:`BlockSparseMatrix` special case with its own
    packed representation and an exact round-trip.
    """

    def __init__(self, vrow: np.ndarray, col: np.ndarray, vectors: np.ndarray, shape: tuple[int, int], v: int):
        if shape[0] % v:
            raise ValueError(f"rows {shape[0]} not divisible by vector length {v}")
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != v:
            raise ValueError(f"vectors must be (n, {v}), got {vectors.shape}")
        self.vrow = np.asarray(vrow, dtype=np.int32)
        self.col = np.asarray(col, dtype=np.int32)
        self.vectors = vectors
        self.shape = (int(shape[0]), int(shape[1]))
        self.v = int(v)

    @classmethod
    def from_dense(cls, dense: np.ndarray, v: int) -> "ColumnVectorSparse":
        """Capture all (v x 1) column vectors containing a non-zero."""
        dense = np.asarray(dense)
        if dense.shape[0] % v:
            raise ValueError(f"rows {dense.shape[0]} not divisible by v={v}")
        gv = dense.shape[0] // v
        tiles = dense.reshape(gv, v, dense.shape[1]).transpose(0, 2, 1)  # (gv, cols, v)
        nonzero = np.abs(tiles).sum(axis=2) > 0
        vrow, col = np.nonzero(nonzero)
        return cls(vrow, col, tiles[vrow, col].copy(), dense.shape, v)

    @property
    def n_vectors(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def density(self) -> float:
        return self.n_vectors * self.v / (self.shape[0] * self.shape[1])

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vectors.dtype)
        rows = (self.vrow[:, None] * self.v + np.arange(self.v)[None, :]).reshape(-1)
        cols = np.repeat(self.col, self.v)
        out[rows, cols] = self.vectors.reshape(-1)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` using only the kept vectors (scatter-add per vector)."""
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dim mismatch: A is {self.shape}, x has {x.shape[0]}")
        contrib = self.vectors * x[self.col][:, None]  # (n, v)
        out = np.zeros((self.shape[0] // self.v, self.v), dtype=contrib.dtype)
        np.add.at(out, self.vrow, contrib)
        return out.reshape(self.shape[0])

    def storage_bytes(self) -> int:
        return self.vectors.nbytes + self.vrow.nbytes + self.col.nbytes

    def __repr__(self) -> str:
        return (
            f"ColumnVectorSparse(shape={self.shape}, v={self.v}, "
            f"vectors={self.n_vectors}, sparsity={self.sparsity:.3f})"
        )


# ---------------------------------------------------------------------------
# performance model (the structured-sparsity counterpart of Figure 1)
# ---------------------------------------------------------------------------

#: Block-sparse tensor-core kernel (Chen et al. class). Runs the kept
#: blocks' flops on tensor cores at a structural-overhead discount to
#: cuBLAS efficiency; calibrated so the cuBLAS crossover lands at ~70%
#: sparsity in mixed precision — the claim the paper cites.
BLOCKSPARSE_FP16 = GemmModel(
    "blocksparse",
    V100_PEAK_FP16,
    eff_max=0.62 * 0.30,  # ~30% of the cuBLAS ceiling: indexing + tail blocks
    half_sat=768.0,
    overhead_s=40e-6,
)


def block_sparse_time(m: int, n: int, k: int, sparsity: float) -> float:
    """Modelled seconds for an (m x k) @ (k x n) block-sparse product.

    Work scales with the kept fraction; efficiency follows the calibrated
    tensor-core ramp discounted for block indexing.
    """
    density = 1.0 - sparsity
    dense_flops = 2.0 * m * n * k
    dim = min(m, n, k)
    return BLOCKSPARSE_FP16.overhead_s + dense_flops * density / (
        BLOCKSPARSE_FP16.peak_flops * BLOCKSPARSE_FP16.efficiency(dim)
    )


def block_crossover_sparsity(m: int = 576, n: int = 2048, k: int = 2048) -> float:
    """Sparsity above which the block-sparse kernel beats cuBLAS.

    Chen et al. report ~0.70 for mixed-precision GEMMs; the calibrated
    models reproduce that within a few points (asserted in tests and
    recorded in EXPERIMENTS.md).
    """
    t_dense = CUBLAS_FP16.time(m, n, k)
    lo, hi = 0.0, 1.0
    for _ in range(40):  # bisection on the monotone time-vs-sparsity curve
        mid = 0.5 * (lo + hi)
        if block_sparse_time(m, n, k, mid) > t_dense:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
