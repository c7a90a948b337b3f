"""Shared-index flattened COO matrices.

This is the storage format SAMO uses for model states, packaged as a
standalone matrix type so the sparse compute kernels and the collective
communication layer can operate on the same representation.
"""

from __future__ import annotations

import numpy as np

from ..core.indexing import validate_flat_indices

__all__ = ["FlatCOO"]


class FlatCOO:
    """A 2-D sparse matrix stored as (flat int32 indices, values, shape).

    Unlike SciPy's COO there is a single 1-D index array (indices into the
    row-major flattened view) shared across any number of value arrays —
    exactly the paper's storage scheme.
    """

    def __init__(self, ind: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        if len(shape) != 2:
            raise ValueError("FlatCOO is 2-D; use repro.core for general tensors")
        self.shape = (int(shape[0]), int(shape[1]))
        size = self.shape[0] * self.shape[1]
        self.ind = validate_flat_indices(np.asarray(ind), size)
        values = np.asarray(values)
        if values.shape != self.ind.shape:
            raise ValueError("values and indices must have the same length")
        self.values = values

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "FlatCOO":
        """Capture the non-zero pattern and values of a dense matrix."""
        dense = np.asarray(dense)
        flat = dense.reshape(-1)
        ind = np.flatnonzero(flat).astype(np.int32)
        return cls(ind, flat[ind].copy(), dense.shape)

    @classmethod
    def random(
        cls,
        shape: tuple[int, int],
        sparsity: float,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> "FlatCOO":
        """Uniformly random pattern at the requested sparsity."""
        rng = rng or np.random.default_rng()
        size = shape[0] * shape[1]
        nnz = size - int(round(sparsity * size))
        ind = np.sort(rng.choice(size, size=nnz, replace=False)).astype(np.int32)
        values = rng.standard_normal(nnz).astype(dtype)
        return cls(ind, values, shape)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.ind.size)

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    def rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column coordinates recovered from the flat index."""
        n_cols = self.shape[1]
        return self.ind // n_cols, self.ind % n_cols

    def to_dense(self) -> np.ndarray:
        """Materialise the dense matrix (zeros at pruned positions)."""
        flat = np.zeros(self.shape[0] * self.shape[1], dtype=self.values.dtype)
        flat[self.ind] = self.values
        return flat.reshape(self.shape)

    def to_csr(self) -> "scipy.sparse.csr_matrix":
        """Convert to SciPy CSR for the compute kernels."""
        from scipy import sparse as sp  # deferred: only matrix builders need SciPy

        rows, cols = self.rows_cols()
        return sp.csr_matrix(
            (self.values, (rows, cols)), shape=self.shape
        )

    def with_values(self, values: np.ndarray) -> "FlatCOO":
        """New matrix sharing this pattern with different values —
        the shared-index property SAMO exploits across its state tensors."""
        return FlatCOO(self.ind, values, self.shape)

    def storage_bytes(self) -> int:
        """Index + value bytes (indices are int32 by construction)."""
        return self.ind.nbytes + self.values.nbytes

    def __repr__(self) -> str:
        return f"FlatCOO(shape={self.shape}, nnz={self.nnz}, sparsity={self.sparsity:.3f})"
