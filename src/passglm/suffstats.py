"""Polynomial approximate sufficient statistics: enumeration, accumulation, merge.

Statistics are indexed by multi-indices ``k`` with total degree at most
``M``, in canonical order: by degree, then in
``itertools.combinations_with_replacement`` order (``np.triu_indices(d)``
order for degree 2), so a lower-degree set is a prefix of every higher-degree
one.  The set is one relation, ``MultiIndexSet.parent``: each index of
degree ``m >= 1`` is its prefix, of degree ``m - 1``, plus its last
variable, no smaller than the prefix's.  The position tables, the
multinomial coefficients and the monomials all follow from it.

Two accumulation forms exist:

* raw monomial sums ``t_k = sum_n (y_n x_n)**k`` for the logistic mapping,
  with the polynomial coefficients applied only at posterior-construction
  time (the statistics stay reusable across refits);
* general-form sums ``t_k = sum_n a'_k(y_n) x_n**k`` for every other mapping,
  where the per-record coefficient folds in the fitted polynomial because it
  depends on ``y_n``.

Either way the statistics fit their own terms, ``SuffStats.approxes``, from
the mapping, ``M`` and the radius.  A fit of raw sums, which do not depend on
the radius, may use another approximation of their degree; folded sums only their own.

Both forms run through one kernel, ``_delta``.  Degrees 0 to 2 are
(weighted) column sums and one ``d x d`` Gram product of the record-major
block.  A degree-``m`` index with ``m >= 3`` splits into a head (its first
``m // 2`` variables) and a tail (the other ``m - m // 2``), so its entry is
the sum over records of the weight times a head monomial times a tail
monomial.  The kernel therefore builds feature-major ``(k, B)`` monomials
only up to degree ``ceil(M / 2)`` (at d = 10, M = 6, 286 rows of degrees 0
to 3 instead of all 8,008 indices).  A head whose last variable is ``a``
pairs exactly with the tails whose first variable is at least ``a``, a
suffix of the tail block, so heads are grouped by last variable and each
group, or run of small groups, takes one matrix product with its suffix
(``MultiIndexSet.halves``); nearly every cell it computes is an entry.
``_BLOCK_BYTES`` sets the monomials one block of records holds (no fewer
than the block's statistics) and bounds each product; with ``M <= 2`` a
batch is one block.

Statistics are one float64 array, and blocks, shards and merges are summed
by plain addition, as in the paper.  A compensated (Kahan) add across blocks
buys no accuracy that matters: each block's own BLAS product is an
uncompensated sum over its records, and that error dominates (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, ch. 4).  Against
long-double sums, the worst entry of 1M logit records at d = 20, M = 2 erred
by 2.45e-14 of the largest entry with compensation and 2.55e-14 without; for
20k Poisson records at d = 10, M = 6 the median entry erred by 5.7e-16 of
itself either way, and the worst by 2e-17 and 1.9e-16 of the largest entry,
both within about one rounding of it.
"""

from __future__ import annotations

import copy
import math
import os
import struct
import sys
import warnings
from functools import cached_property, lru_cache

import numpy as np

from .chebyshev import MAX_DEGREE, PolyApprox
from .errors import (
    CapacityError,
    ConfigMismatchError,
    InvalidInputError,
    NumericError,
    StatsFormatError,
)
from .mappings import MAPPING_FACTORIES, MappingSpec, _dense, degree_weights, fit_terms, get_mapping

__all__ = [
    "DEFAULT_INDEX_CAP",
    "MultiIndexSet",
    "SuffStats",
    "enumerate_indices",
    "new_stats",
    "merge",
    "serialize",
    "deserialize",
    "save_stats",
    "load_stats",
]

DEFAULT_INDEX_CAP = 1 << 26

_MAGIC = b"PGLM"
_VERSION = 1
_HEADER = struct.Struct("<4sHHdQHdQ")


# The monomials the kernel holds for one block of records, unless the block's
# statistics are larger, and the bound on each product of degree >= 3.  Swept
# on d = 10, M = 6 and d = 60, M = 4 (CHANGES.md).
_BLOCK_BYTES = 1 << 22
# The most product cells a chunk of degree >= 3 may compute per entry it reads.
_CHUNK_WASTE = 1.5


class MultiIndexSet:
    """All multi-indices of dimension ``d`` and total degree at most ``M``.

    ``parent[m] = (prefix, last)`` for ``1 <= m <= M`` (int64, one entry per
    index of degree ``m``): the position of its prefix within the degree
    ``m - 1`` block and its last variable.  The indices with one prefix ``j``
    are contiguous, one per variable from ``last(j)`` on.  ``degrees[i]`` is
    the total degree of index ``i``, ``multinom[i]`` the multinomial
    coefficient ``(|k|; k)`` and ``offsets[m]`` the position of the first
    index of degree ``m``.
    """

    def __init__(self, d: int, M: int, parent: list):
        self.d = d
        self.M = M
        self.parent = parent
        self.offsets = np.array(
            [0] + [math.comb(d + m - 1, m - 1) for m in range(1, M + 2)], dtype=np.int64
        )
        self.degrees = np.repeat(np.arange(M + 1), np.diff(self.offsets))
        # multinom = m! / prod(k_u!); the last variable's exponent ("run") is
        # its prefix's plus one where the prefix ends in the same variable
        self.multinom = np.ones(len(self))
        run = denom = np.ones(d, dtype=np.int64)
        for m in range(2, M + 1):
            prefix, last = parent[m]
            run = np.where(parent[m - 1][1][prefix] == last, run[prefix] + 1, 1)
            denom = denom[prefix] * run
            block = self.multinom[self.offsets[m] : self.offsets[m + 1]]
            np.divide(float(math.factorial(m)), denom, out=block)

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @cached_property
    def rows(self) -> np.ndarray:
        """``(|K|, M)`` int64: row ``i`` lists the variables of index ``i`` in
        nondecreasing order, padded with -1; built from ``parent`` when read."""
        o = self.offsets
        out = np.full((len(self), self.M), -1, dtype=np.int64)
        for m in range(1, self.M + 1):
            prefix, last = self.parent[m]
            out[o[m] : o[m + 1], :m] = np.column_stack([out[o[m - 1] : o[m], : m - 1][prefix], last])
        return out

    @cached_property
    def up(self) -> np.ndarray:
        """``up[j, u]`` for each index ``j`` of degree ``m < M``: the position
        of ``j + e_u`` (int32).  For ``u >= last(j)`` that is ``j``'s child by
        ``u``, else the child by ``last(j)`` of ``up[prefix(j), u]``; the child
        of ``i`` by ``v`` is ``first(i) + v - last(i)``, with ``first(i)`` the
        position of ``i``'s first child.  Rows are filled in blocks whose int64
        temporaries are ``_BLOCK_BYTES / 2`` each."""
        d, o = self.d, self.offsets
        out = np.empty((o[self.M], d), dtype=np.int32)
        u = np.arange(d)
        out[: min(self.M, 1)] = o[1] + u
        step = max(1, _BLOCK_BYTES // (16 * d))
        for m in range(1, self.M):
            prefix, last = self.parent[m]
            first = o[m + 1] + np.cumsum(d - last) - (d - last)
            for lo in range(0, len(last), step):
                j = np.arange(lo, min(lo + step, len(last)))
                at = out[o[m - 1] + prefix[j]] - o[m]
                np.copyto(at, j[:, None], where=u >= last[j, None])
                pos = np.maximum(u, last[j, None])
                pos += first[at] - last[at]
                out[o[m] + lo : o[m] + lo + len(j)] = pos
        return out

    def monomials(self, x: np.ndarray, top: int, out: np.ndarray | None = None) -> np.ndarray:
        """Feature-major monomials ``(offsets[top + 1], B)`` of degree at most
        ``top`` of the rows of ``x`` (``(B, d)``), each its prefix's times its
        last variable; ``out``, when given, is a flat buffer to fill."""
        o, B = self.offsets, len(x)
        size = o[top + 1] * B
        mono = (np.empty(size) if out is None else out[:size]).reshape(o[top + 1], B)
        mono[:1] = 1.0
        if top >= 1:
            mono[1 : self.d + 1] = x.T
        for m in range(2, top + 1):
            prefix, last = self.parent[m]
            rows = mono[o[m] : o[m + 1]]
            np.take(mono[o[m - 1] : o[m]], prefix, axis=0, out=rows, mode="clip")
            rows *= mono[1 : self.d + 1][last]
        return mono

    @cached_property
    def halves(self) -> list:
        """``halves[m]`` for ``m >= 3``: the chunks ``(heads, start, dest)``
        whose products give the degree-``m`` entries.

        An entry is its head (first ``m // 2`` variables) times its tail (the
        other ``m - m // 2``).  A head whose last variable is ``a`` pairs with
        every tail whose first variable is at least ``a`` and no other; in
        canonical order those tails are a suffix of their block, and the
        head's entries are one run of the degree-``m`` block in the same
        order.  So heads are grouped by last variable.  A chunk takes the
        ``heads`` (positions in their block) of consecutive last variables
        times the tails from ``start``, the suffix its smallest last variable
        pairs with; ``dest`` holds the global position of each cell of that
        product, or ``len(self)`` for a cell no entry reads.

        Consecutive groups merge while the chunk computes at most
        ``_CHUNK_WASTE`` cells per entry, so that small groups do not each
        become one thin product; a chunk whose product passes
        ``_BLOCK_BYTES`` is split by heads."""
        out = [None, None, None]
        cap = max(1, _BLOCK_BYTES // 8)
        for m in range(3, self.M + 1):
            h, t = m // 2, m - m // 2
            # count[a]: the tails whose first variable is at least a
            count = np.array([math.comb(self.d - a + t - 1, t) for a in range(self.d)], dtype=np.int64)
            last = self.parent[h][1]
            first = self.offsets[m] + np.cumsum(count[last]) - count[last]
            order = np.argsort(last, kind="stable")
            last, first = last[order], first[order]
            starts = np.flatnonzero(np.diff(last, prepend=-1))
            read = np.append(0, np.cumsum(count[last]))  # entries of the heads before each one
            bounds = []  # [lo, hi) in head order of each chunk, before splitting
            for g0, g1 in zip(starts, np.append(starts[1:], len(last))):
                if bounds:
                    lo = bounds[-1][0]
                    cells = (g1 - lo) * count[last[lo]]
                    if cells <= cap and cells <= _CHUNK_WASTE * (read[g1] - read[lo]):
                        bounds[-1][1] = g1
                        continue
                bounds.append([g0, g1])
            chunks = []
            for lo, hi in bounds:
                width = count[last[lo]]
                step = max(1, cap // width)
                cols = np.arange(width)
                for a in range(lo, hi, step):
                    b = min(a + step, hi)
                    skip = (width - count[last[a:b]])[:, None]
                    dest = np.where(cols >= skip, first[a:b, None] + cols - skip, len(self))
                    chunks.append((order[a:b], int(count[0] - width), dest.astype(np.intp)))
            out.append(chunks)
        return out

    @cached_property
    def held(self) -> int:
        """The monomials per record the kernel holds at degree ``M >= 3``:
        degrees 1 (the transposed covariates) to ``ceil(M / 2)`` and the
        (weighted) heads of one chunk."""
        rows = max((len(dest) for chunks in self.halves[3:] for _, _, dest in chunks), default=0)
        return int(self.offsets[(self.M + 1) // 2 + 1] - self.offsets[1] + rows)


def enumerate_indices(d: int, M: int, cap: int = DEFAULT_INDEX_CAP) -> MultiIndexSet:
    """Enumerate the full multi-index set for ``(d, M)`` in canonical order.

    Raises :class:`CapacityError` when ``binomial(d + M, d)`` exceeds ``cap``;
    reduce the dimension first (e.g. with a sparse random projection).
    """
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if M < 0:
        raise InvalidInputError(f"degree must be >= 0, got {M}")
    count = math.comb(d + M, d)
    if count > cap:
        raise CapacityError(
            f"index set for d={d}, M={M} has {count} entries, exceeding the cap "
            f"{cap}; reduce the dimension (sparse random projection) or raise the cap"
        )
    # the children of each degree-(m - 1) index: one per variable from its last on
    parent, last = [None], np.zeros(1, dtype=np.int64)
    for m in range(1, M + 1):
        counts = d - last
        prefix = np.repeat(np.arange(len(last)), counts)
        # a child's last variable is its prefix's plus its place among the siblings
        last = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts - last, counts)
        parent.append((prefix, last))
    return MultiIndexSet(d, M, parent)


def _caller_level() -> int:
    """The ``stacklevel``, for a warning its caller raises, of the first frame outside the package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _delta(iset: MultiIndexSet, base: np.ndarray, G: np.ndarray | None, space=None) -> np.ndarray:
    """Statistics of one block of records: ``base`` is ``(B, d)`` (``y x`` for
    raw monomial sums, else ``x``) and ``G`` the ``(B, M + 1)`` degree weights,
    ``None`` for raw sums.

    Degrees 0 to 2 come from ``base`` as column sums and one Gram product.
    For degree 3 and up, ``MultiIndexSet.monomials`` builds the monomials only
    up to degree ``ceil(M / 2)``, and each chunk of ``MultiIndexSet.halves``
    takes one matrix product of its heads with the suffix of tails they pair
    with, scattered to its entries.  The degree weight goes on the heads,
    which are never wider than the tails.
    """
    delta = np.empty(len(iset) + 1)  # the last slot takes the unread cells
    delta[0] = len(base) if G is None else G[:, 0].sum()
    if iset.M >= 1:
        delta[1 : iset.d + 1] = base.sum(axis=0) if G is None else base.T @ G[:, 1]
    if iset.M >= 2:
        weighted = base if G is None else G[:, 2, None] * base
        prefix, last = iset.parent[2]
        delta[iset.offsets[2] : iset.offsets[3]] = (base.T @ weighted)[prefix, last]
    if iset.M >= 3:
        o = iset.offsets
        mono = iset.monomials(base, (iset.M + 1) // 2, space)
        GT = None if G is None else np.ascontiguousarray(G.T)
        for m in range(3, iset.M + 1):
            h, t = m // 2, m - m // 2
            heads, tails = mono[o[h] : o[h + 1]], mono[o[t] : o[t + 1]]
            weight = None if G is None else GT[m]
            for rows, start, dest in iset.halves[m]:
                H = heads[rows]
                if weight is not None:
                    H *= weight
                delta[dest] = H @ tails[start:].T
    delta = delta[:-1]
    if G is not None:
        delta *= iset.multinom
    return delta


class SuffStats:
    """Accumulated polynomial sufficient statistics for one mapping.

    Single-writer: ``accumulate_batch`` mutates in place.
    ``merge`` combines two compatible accumulators into a new one.
    """

    def __init__(self, index_set: MultiIndexSet, mapping: MappingSpec, radius: float):
        if not (math.isfinite(radius) and radius > 0):
            raise InvalidInputError(f"approximation radius must be finite and positive, got {radius}")
        if index_set.M > MAX_DEGREE:  # no term can be fitted: refuse before the pass
            raise InvalidInputError(f"degree {index_set.M} exceeds the supported maximum {MAX_DEGREE}")
        self.index_set = index_set
        self.mapping = mapping
        self.radius = float(radius)
        self.t = np.zeros(len(index_set))
        self.n = 0
        self._norm_warned = False

    @cached_property
    def approxes(self) -> tuple[PolyApprox, ...]:
        """The degree-``M`` Chebyshev fit of each term on ``[-radius, radius]``,
        fitted when first read; folded statistics hold them in every entry."""
        return fit_terms(self.mapping, self.index_set.M, self.radius)

    # -- configuration ------------------------------------------------------

    def config_key(self) -> tuple:
        return (
            self.mapping.name,
            self.mapping.scale,
            self.index_set.d,
            self.index_set.M,
            self.radius,
            self.mapping.raw_monomial,
        )

    def same_config(self, other: "SuffStats") -> bool:
        return self.config_key() == other.config_key() and all(
            np.array_equal(a.b, b.b) for a, b in zip(self.approxes, other.approxes)
        )

    def values(self) -> np.ndarray:
        """A copy of the accumulated statistics, which later accumulation
        does not change."""
        return self.t.copy()

    def copy(self) -> "SuffStats":
        out = copy.copy(self)
        out.t = self.t.copy()
        return out

    # -- accumulation -------------------------------------------------------

    def _check_norm(self, sq_norms) -> None:
        if not self._norm_warned and np.any(np.asarray(sq_norms) > 1.0 + 1e-12):
            self._norm_warned = True
            warnings.warn(
                "covariate 2-norm exceeds 1; the approximation-quality theory "
                "assumes normalized covariates (consider rescaling at ingest)",
                stacklevel=_caller_level(),
            )

    def accumulate_batch(self, y: np.ndarray, X: np.ndarray) -> "SuffStats":
        """Absorb a batch of records ``y: (B,)``, ``X: (B, d)``; one record is
        a one-row batch.  ``X`` is a dense array or a ``scipy.sparse`` matrix,
        which is densified first.

        The records are folded one block at a time.  With ``M >= 3`` a
        block's monomials (``MultiIndexSet.held``) fill ``_BLOCK_BYTES``, or
        as much as the block's statistics where that is more: each block also
        scatters, scales and adds every entry, work that fewer records would
        not amortize.  A block is added to ``t`` by plain addition: its own
        products already sum its records uncompensated, and that error
        dominates, so a compensated add did not move the error measurably."""
        iset = self.index_set
        # one memory layout: the products over strided rows can round otherwise
        X = np.ascontiguousarray(_dense(X), dtype=float)
        if X.ndim != 2 or X.shape[1] != iset.d:
            raise InvalidInputError(f"covariate batch must be (B, {iset.d}), got {X.shape}")
        y = np.asarray(y, dtype=float)
        if y.shape != (len(X),):
            raise InvalidInputError(f"labels of shape {y.shape} do not match {len(X)} rows")
        if not np.all(np.isfinite(X)):
            bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
            raise NumericError("non-finite covariate value", record_index=self.n + bad)
        y = self.mapping.canonicalize_y(y, first_record=self.n)
        self._check_norm((X * X).sum(axis=1))

        base = y[:, None] * X if self.mapping.raw_monomial else X
        G = None if self.mapping.raw_monomial else degree_weights(self.mapping, self.approxes, y)
        step = max(1, len(y) if iset.M <= 2 else max(_BLOCK_BYTES // 8, len(iset)) // iset.held)
        # the monomials' buffer is kept across blocks, so that no block maps fresh pages
        space = np.empty(min(step, len(y)) * iset.offsets[(iset.M + 1) // 2 + 1]) if iset.M >= 3 else None
        for lo in range(0, len(y), step):
            sub = None if G is None else G[lo : lo + step]
            self.t += _delta(iset, base[lo : lo + step], sub, space)
        self.n += len(y)
        return self

    # -- merging -------------------------------------------------------------

    def merge(self, other: "SuffStats") -> "SuffStats":
        """Entry-wise sum of two compatible accumulators."""
        if not self.same_config(other):
            raise ConfigMismatchError(
                f"cannot merge statistics with configs {self.config_key()} "
                f"and {other.config_key()}"
            )
        out = self.copy()
        out.t += other.t
        out.n = self.n + other.n
        return out


def new_stats(index_set: MultiIndexSet, mapping: MappingSpec, radius: float) -> SuffStats:
    """Zeroed statistics accumulator for ``mapping`` on ``index_set``; it fits
    its own terms (``SuffStats.approxes``), which every fit of non-logistic
    statistics uses."""
    return SuffStats(index_set, mapping, radius)


def merge(a: SuffStats, b: SuffStats) -> SuffStats:
    return a.merge(b)


# --- serialization ----------------------------------------------------------


@lru_cache(maxsize=1)
def _crc32c_table() -> np.ndarray:
    poly = np.uint32(0x82F63B78)
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, (c >> 1) ^ poly, c >> 1)
    return c


# Lanes fed in lockstep; more lanes mean fewer, longer numpy steps.
_CRC_LANES = 1 << 14
# _BYTE_BITS[v, b] is bit b of the byte v; _UNIT[b] is the register 1 << b.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_UNIT = np.uint32(1) << np.arange(32, dtype=np.uint32)


def _shift_tables(cols: np.ndarray) -> np.ndarray:
    """Byte tables of the GF(2)-linear map on 32-bit CRC registers whose
    image of bit ``b`` is ``cols[b]``: ``(4, 256)``, one table per register byte."""
    picked = np.where(_BYTE_BITS[None, :, :], cols.reshape(4, 1, 8), np.uint32(0))
    return np.bitwise_xor.reduce(picked, axis=2)


def _apply(tables: np.ndarray, reg):
    """Apply the linear map given by its byte tables to register(s) ``reg``."""
    return (
        tables[0][reg & 0xFF]
        ^ tables[1][(reg >> 8) & 0xFF]
        ^ tables[2][(reg >> 16) & 0xFF]
        ^ tables[3][reg >> 24]
    )


@lru_cache(maxsize=64)
def _zeros_operator(k: int) -> np.ndarray:
    """Byte tables of the map that feeds ``2**k`` zero bytes through a raw
    CRC-32C register, built by repeated squaring as in zlib's
    ``crc32_combine`` (never by feeding the zero bytes)."""
    if k == 0:
        return _shift_tables((_UNIT >> 8) ^ _crc32c_table()[_UNIT & 0xFF])
    half = _zeros_operator(k - 1)
    return _shift_tables(_apply(half, _apply(half, _UNIT)))


def _feed_zeros(reg: int, count: int) -> int:
    """Raw register after ``count`` zero bytes, one squared operator per set bit."""
    reg = np.uint32(reg)
    k = 0
    while count:
        if count & 1:
            reg = _apply(_zeros_operator(k), reg)
        count >>= 1
        k += 1
    return int(reg)


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) checksum; ``crc`` continues an earlier checksum,
    so ``crc32c(b, crc32c(a)) == crc32c(a + b)``.

    The raw (un-inverted) register is linear over GF(2) in its start value
    and the bytes.  So the data, left-padded with zero bytes (which leave a
    zero register at zero), is cut into equal lanes that are fed through the
    byte table in lockstep from a zero register; adjacent lane registers are
    then combined pairwise with zero-byte shift operators, and the shifted
    start register is added last.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    lanes = min(_CRC_LANES, 1 << max(0, n - 1).bit_length())
    length = -(-n // lanes)
    step = max(0, length - 1).bit_length()  # lanes of 2**step bytes
    length = 1 << step
    block = np.zeros(lanes * length, dtype=np.uint8)
    block[block.size - n :] = buf
    cols = np.ascontiguousarray(block.reshape(lanes, length).T)
    table = _crc32c_table()
    reg = np.zeros(lanes, dtype=np.uint32)
    for col in cols:
        reg = (reg >> 8) ^ table[(reg ^ col) & 0xFF]
    while len(reg) > 1:
        reg = _apply(_zeros_operator(step), reg[0::2]) ^ reg[1::2]
        step += 1
    return (_feed_zeros(crc ^ 0xFFFFFFFF, n) ^ int(reg[0])) ^ 0xFFFFFFFF


def serialize(stats: SuffStats) -> bytes:
    """Serialize to the PGLM binary format.  Every entry must be finite, as
    :func:`deserialize` requires; the bytes are built with one copy of the
    entries."""
    model_id = stats.mapping.model_id
    if model_id is None:
        raise InvalidInputError(
            f"mapping {stats.mapping.name!r} has no registered model id"
        )
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        model_id,
        stats.mapping.scale if stats.mapping.scale is not None else 0.0,
        stats.index_set.d,
        stats.index_set.M,
        stats.radius,
        stats.n,
    )
    t = np.ascontiguousarray(stats.t, dtype="<f8")
    if not np.isfinite(t).all():
        at = int(np.argmin(np.isfinite(t)))
        raise NumericError(f"entry {at} is {float(t[at])!r}; a statistics file holds only finite entries")
    crc = struct.pack("<I", crc32c(t.data, crc32c(header)))
    return b"".join((header, t.data, crc))


def deserialize(data: bytes, cap: int = DEFAULT_INDEX_CAP) -> SuffStats:
    """Reconstruct statistics from PGLM bytes, re-deriving the mapping; the
    fitted terms follow from it, the degree and the radius."""
    if len(data) < _HEADER.size + 4:
        raise StatsFormatError("truncated statistics payload")
    magic, version, model_id, scale, d, M, radius, n = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise StatsFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise StatsFormatError(f"unsupported version {version}")
    body, trailer = data[:-4], data[-4:]
    (expected_crc,) = struct.unpack("<I", trailer)
    if crc32c(body) != expected_crc:
        raise StatsFormatError("checksum failure")
    name = next((k for k, f in MAPPING_FACTORIES.items() if f().model_id == model_id), None)
    if name is None:
        raise StatsFormatError(f"unknown model id {model_id}")
    if M > MAX_DEGREE:
        raise StatsFormatError(f"degree {M} exceeds the supported maximum {MAX_DEGREE}")
    if not (math.isfinite(radius) and radius > 0):
        raise StatsFormatError(f"radius must be finite and positive, got {radius!r}")
    mapping = _header_mapping(name, scale)
    # check the header against the payload before building its index set;
    # with M <= MAX_DEGREE the count is cheap even for a hostile d
    payload = body[_HEADER.size :]
    entries = len(payload) // 8
    if d < 1 or len(payload) != 8 * math.comb(d + M, M):
        raise StatsFormatError(
            f"payload holds {entries} entries, but d={d}, M={M} needs binomial(d + M, d)"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    if not np.all(np.isfinite(values)):
        raise StatsFormatError(f"entry {int(np.argmin(np.isfinite(values)))} is not finite")
    stats = SuffStats(enumerate_indices(d, M, cap=cap), mapping, radius)
    stats.t = values
    stats.n = int(n)
    return stats


def _header_mapping(name: str, scale: float) -> MappingSpec:
    """The mapping a header's model and scale name.  ``serialize`` writes a
    scale of 0.0 for a model without one; any other model needs a finite
    positive scale from which its mapping can be built."""
    default = MAPPING_FACTORIES[name]()
    if default.scale is None:
        if scale != 0.0:
            raise StatsFormatError(f"{name} takes no scale, but the header holds {scale!r}")
        return default
    if not (math.isfinite(scale) and scale > 0):
        raise StatsFormatError(f"{name} scale must be finite and positive, got {scale!r}")
    try:
        return get_mapping(name, scale)
    except InvalidInputError as exc:
        raise StatsFormatError(f"{name} scale {scale!r} gives no usable mapping: {exc}") from None


def save_stats(stats: SuffStats, path) -> None:
    data = serialize(stats)  # before opening, so that a refusal leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load_stats(path) -> SuffStats:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
