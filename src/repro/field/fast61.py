"""Vectorised arithmetic over the Mersenne-61 field (p = 2^61 − 1).

The numpy fast path for the library's *default* field, mirroring
:mod:`repro.field.fast31`.  Unlike Mersenne-31, products of two 61-bit
residues span 122 bits and do not fit a ``uint64``, so multiplication
splits each operand into 32-bit limbs and recombines the three partial
products using ``2^61 ≡ 1 (mod p)``:

    a·b = m00 + mid·2^32 + m11·2^64        (m00 = a0·b0, …)
        ≡ (m00 & p) + (m00 >> 61)                       # 2^61 ≡ 1
        + ((mid & (2^29−1)) << 32) + (mid >> 29)        # 2^61 ≡ 1
        + (m11 << 3)                                    # 2^64 ≡ 8

Every intermediate stays below 2^63, so the whole pipeline is exact in
``uint64`` — results are bit-for-bit identical to Python big-int
arithmetic, which is what lets the proving kernels swap this in without
changing a single proof byte.

Scatter/gather sparse products (:class:`F61SpMV`) pre-sort edges by
output column so per-column sums become ``np.add.reduceat`` segment
reductions; 32-bit limb splitting keeps those sums exact for column
degrees up to 2^29.  Batched products walk their rows in blocks sized
by :data:`SPMV_BLOCK_BYTES` so the temporaries stay in cache.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import FieldError
from .primes import MERSENNE61

P61 = np.uint64(MERSENNE61)
_P61_INT = MERSENNE61

_M32 = np.uint64(0xFFFFFFFF)
_M29 = np.uint64((1 << 29) - 1)
_S3 = np.uint64(3)
_S29 = np.uint64(29)
_S32 = np.uint64(32)
_S61 = np.uint64(61)

ArrayLike = Union[np.ndarray, Sequence[int]]

#: Byte size of one ``[block, nnz]`` uint64 temporary in
#: :meth:`F61SpMV.apply_batch`.  The multiply keeps a handful of these
#: alive at once, so the block's working set stays a few hundred KiB
#: and fits in L2; whole-batch passes over ``[L·R, nnz]`` ran to
#: hundreds of MiB.  The laned encode was flat from 128 to 512 KiB on a
#: host with 2 MiB of L2 per core, and 2.6× slower at 4 MiB.
SPMV_BLOCK_BYTES = 256 * 1024


def as_f61(values: ArrayLike) -> np.ndarray:
    """Coerce canonical residues (ints in [0, p)) to a ``uint64`` array.

    Inputs must already be reduced — the proving kernels' raw-int contract.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.asarray(values, dtype=np.uint64)


def f61_reduce(x: np.ndarray) -> np.ndarray:
    """Full reduction of values < 2^62 to canonical residues in [0, p)."""
    x = (x & P61) + (x >> _S61)
    return np.where(x >= P61, x - P61, x)


def f61_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular addition of canonical residue arrays."""
    s = a + b
    return np.where(s >= P61, s - P61, s)


def f61_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular subtraction of canonical residue arrays."""
    return np.where(a >= b, a - b, a + P61 - b)


def f61_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular multiplication via 32-bit limb splitting.

    Exact for any canonical inputs: the three partial products and the
    two recombined digits all stay below 2^63 (see module docstring).
    """
    a0 = a & _M32
    a1 = a >> _S32
    b0 = b & _M32
    b1 = b >> _S32
    m00 = a0 * b0                      # < 2^64
    mid = a0 * b1 + a1 * b0            # < 2^62
    m11 = a1 * b1                      # < 2^58
    d0 = (m00 & P61) + ((mid & _M29) << _S32)          # < 2^62
    d1 = (m00 >> _S61) + (mid >> _S29) + (m11 << _S3)  # < 2^62
    return f61_reduce(f61_reduce(d0 + d1))


def f61_scale(c: int, a: np.ndarray) -> np.ndarray:
    """Multiply every residue by the scalar ``c`` (reduced first)."""
    return f61_mul(a, np.uint64(c % _P61_INT))


def f61_sum(a: np.ndarray) -> int:
    """Exact sum of a residue vector, reduced mod p.

    Summing 61-bit values overflows ``uint64`` after 8 terms, so the
    low/high 32-bit limbs are summed separately (each limb sum is exact
    for up to 2^32 / 2^35 elements) and recombined in Python ints.
    """
    lo = int((a & _M32).sum(dtype=np.uint64))
    hi = int((a >> _S32).sum(dtype=np.uint64))
    return (lo + (hi << 32)) % _P61_INT


def f61_axis_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Exact reduction of a residue array along one axis, mod p.

    Low/high 32-bit limbs are summed separately (exact for up to 2^29
    summed elements) and recombined with ``2^32`` folded through
    ``f61_mul`` — the n-d generalisation of :func:`f61_columns_sum`.
    """
    lo = (a & _M32).sum(axis=axis, dtype=np.uint64)
    hi = (a >> _S32).sum(axis=axis, dtype=np.uint64)
    return f61_reduce(f61_reduce(lo) + f61_mul(hi, np.uint64(1 << 32)))


def f61_columns_sum(a: np.ndarray) -> np.ndarray:
    """Exact per-column sum of a 2-D residue matrix, reduced mod p.

    Low/high 32-bit limbs are summed separately (exact for up to 2^29
    rows) and recombined with ``2^32`` folded through ``f61_mul``.
    """
    return f61_axis_sum(a, axis=0)


def f61_rows_sum(a: np.ndarray) -> np.ndarray:
    """Exact per-lane sum over the *last* axis, reduced mod p.

    ``[lanes, n] → [lanes]`` — the lane-vectorised counterpart of
    :func:`f61_sum`, used by the sum-check round kernels to produce one
    round evaluation per proof lane from a single numpy pass.
    """
    return f61_axis_sum(a, axis=-1)


def f61_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product mod p (exact: reduced products, limb-split sum)."""
    if a.shape != b.shape:
        raise FieldError(f"dot shape mismatch: {a.shape} vs {b.shape}")
    return f61_sum(f61_mul(a, b))


def f61_rows_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-lane inner products: ``[lanes, n] · [lanes, n] → [lanes]``."""
    if a.shape != b.shape:
        raise FieldError(f"dot shape mismatch: {a.shape} vs {b.shape}")
    return f61_rows_sum(f61_mul(a, b))


class F61SpMV:
    """A fixed sparse edge set ``y[dst] += x[src]·w`` applied to vectors.

    Edges are sorted by destination once at construction so each apply is
    a gather, a vectorised modular multiply, and two ``np.add.reduceat``
    segment sums (low/high limbs separately — exact for column degrees
    up to 2^29, far beyond the encoder's bound of 255).
    """

    __slots__ = ("n_in", "n_out", "_src", "_w", "_starts", "_dst")

    def __init__(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        weights: Sequence[int],
        n_in: int,
        n_out: int,
    ):
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        w_arr = as_f61(weights)
        if not (src_arr.shape == dst_arr.shape == w_arr.shape):
            raise FieldError("edge arrays must have equal length")
        order = np.argsort(dst_arr, kind="stable")
        self.n_in = n_in
        self.n_out = n_out
        self._src = src_arr[order]
        self._w = w_arr[order]
        dst_sorted = dst_arr[order]
        # Segment starts per distinct destination (empty columns stay 0).
        self._dst, self._starts = np.unique(dst_sorted, return_index=True)

    @property
    def nnz(self) -> int:
        return int(self._w.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y[dst] = Σ x[src]·w`` over all edges, canonical residues out."""
        if x.size != self.n_in:
            raise FieldError(f"input length {x.size} != n_in {self.n_in}")
        y = np.zeros(self.n_out, dtype=np.uint64)
        if self._w.size == 0:
            return y
        contrib = f61_mul(x[self._src], self._w)
        lo = np.add.reduceat(contrib & _M32, self._starts)
        hi = np.add.reduceat(contrib >> _S32, self._starts)
        # lo < deg·2^32, hi < deg·2^29; recombine exactly:
        # hi·2^32 ≡ f61_mul(hi, 2^32) keeps everything in range.
        seg = f61_reduce(f61_reduce(lo) + f61_mul(hi, np.uint64(1 << 32)))
        y[self._dst] = seg
        return y

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Apply to a batch of rows: ``(R, n_in) → (R, n_out)``.

        Rows are walked in blocks of ``SPMV_BLOCK_BYTES // (8·nnz)`` so
        each block's ``[block, nnz]`` gather / multiply / segment-sum
        temporaries stay cache-sized; each block's sums land straight in
        the preallocated output.  Rows are independent, so the result is
        bit-identical to one whole-batch pass (and to per-row
        :meth:`apply`) — this is how the commit stage pushes every
        witness row through an encoder graph.
        """
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise FieldError(f"batch shape {x.shape} != (R, {self.n_in})")
        rows = x.shape[0]
        y = np.zeros((rows, self.n_out), dtype=np.uint64)
        if self._w.size == 0:
            return y
        block = max(1, SPMV_BLOCK_BYTES // (8 * self._w.size))
        for start in range(0, rows, block):
            part = slice(start, start + block)
            contrib = f61_mul(x[part, self._src], self._w)
            lo = np.add.reduceat(contrib & _M32, self._starts, axis=1)
            hi = np.add.reduceat(contrib >> _S32, self._starts, axis=1)
            y[part, self._dst] = f61_reduce(
                f61_reduce(lo) + f61_mul(hi, np.uint64(1 << 32))
            )
        return y

    def apply_lanes(self, x: np.ndarray) -> np.ndarray:
        """Apply to a lane-batched stack: ``(L, R, n_in) → (L, R, n_out)``.

        Lanes are independent rows of one flattened ``(L·R, n_in)``
        batch, so ``L`` proofs' worth of rows go through
        :meth:`apply_batch` and its cache-sized row blocks together.
        """
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise FieldError(f"lane batch shape {x.shape} != (L, R, {self.n_in})")
        lanes, rows = x.shape[0], x.shape[1]
        flat = self.apply_batch(x.reshape(lanes * rows, self.n_in))
        return flat.reshape(lanes, rows, self.n_out)

    def apply_list(self, x: Sequence[int]) -> List[int]:
        """List-in/list-out convenience wrapper."""
        return self.apply(as_f61(x)).tolist()
