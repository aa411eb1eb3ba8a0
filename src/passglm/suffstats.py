"""Polynomial approximate sufficient statistics: enumeration, accumulation, merge.

Statistics are indexed by multi-indices ``k`` with total degree at most ``M``.
A multi-index of degree ``m`` is stored as its ``m`` variable indices in
nondecreasing order, padded with -1 to ``M`` columns, so the whole index set
is one ``(|K|, M)`` integer array.  Its canonical order is by degree, then,
within a degree, ``itertools.combinations_with_replacement`` order; for the
degree-2 block that is ``np.triu_indices(d)`` order.  Positions follow from
the combinatorial number system, so a lower-degree set is a prefix of every
higher-degree one.

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
only up to degree ``ceil(M / 2)`` (at d = 10, M = 6, 285 rows of degrees 1
to 3 instead of all 8,008 indices).  A head whose last variable is ``a``
pairs exactly with the tails whose first variable is at least ``a``, a
suffix of the tail block, so heads are grouped by last variable and each
group, or run of small groups, takes one matrix product with its suffix
(``MultiIndexSet.halves``); nearly every cell it computes is an entry.
``_BLOCK_BYTES`` sets the monomials one block of records holds (no fewer
than the block's statistics) and bounds each product; with ``M <= 2`` a
batch is one block.

Every entry carries a Kahan compensation term so that sharded accumulation
and merge agree with a sequential pass to near machine precision.
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

    ``rows`` is a ``(|K|, M)`` int64 array: row ``i`` lists the variables of
    index ``i`` in nondecreasing order, padded with -1.  ``degrees[i]`` is its
    total degree, ``multinom[i]`` the multinomial coefficient ``(|k|; k)`` and
    ``offsets[m]`` the position of the first index of degree ``m``.
    """

    def __init__(self, d: int, M: int, rows: np.ndarray):
        self.d = d
        self.M = M
        self.rows = rows
        self.offsets = np.array(
            [0] + [math.comb(d + m - 1, m - 1) for m in range(1, M + 2)], dtype=np.int64
        )
        self.degrees = np.repeat(np.arange(M + 1), np.diff(self.offsets))
        # run[:, i] counts the copies of rows[:, i] among rows[:, :i + 1]
        run = np.ones(rows.shape, dtype=np.int64)
        for i in range(1, M):
            run[:, i] = np.where(rows[:, i] == rows[:, i - 1], run[:, i - 1] + 1, 1)
        denom = np.where(rows >= 0, run, 1).prod(axis=1)
        factorial = np.array([math.factorial(m) for m in range(M + 1)], dtype=float)
        self.multinom = factorial[self.degrees] / denom

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiIndexSet) and self.d == other.d and self.M == other.M
        )

    @cached_property
    def _tails(self) -> np.ndarray:
        """``_tails[a, k]``: the number of nondecreasing ``k``-tuples of the
        ``d - 1 - a`` variables above ``a``."""
        above = self.d - 1 - np.arange(self.d)
        out = np.ones((self.d, self.M + 1), dtype=np.int64)
        for k in range(1, self.M + 1):
            out[:, k] = out[:, k - 1] * (above + k - 1) // k
        return out

    def _rank(self, cols: np.ndarray) -> np.ndarray:
        """Positions within the degree-``j`` block of the indices whose ``j``
        nondecreasing variables are the columns of ``cols``, by the
        combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): the indices
        after ``a`` that first differ from it in column ``i`` are the
        nondecreasing ``(j - i)``-tuples of variables above ``a_i``."""
        j = cols.shape[1]
        after = np.zeros(len(cols), dtype=np.int64)
        for i in range(j):
            after += self._tails[cols[:, i], j - i]
        return self.offsets[j + 1] - self.offsets[j] - 1 - after

    def _block(self, m: int) -> np.ndarray:
        return self.rows[self.offsets[m] : self.offsets[m + 1]]

    @cached_property
    def parent(self) -> list:
        """``parent[j] = (prefix, last)`` for ``2 <= j <= ceil(M / 2)``: for
        each index of degree ``j``, the position within the degree ``j - 1``
        block of the index with its last variable dropped, and that variable."""
        top = (self.M + 1) // 2
        return [None, None] + [
            (self._rank(self._block(j)[:, : j - 1]), self._block(j)[:, j - 1].copy())
            for j in range(2, top + 1)
        ]

    @cached_property
    def up(self) -> np.ndarray:
        """``up[j, u]`` for each index ``j`` of degree below ``M``: the
        position of ``j + e_u``, the index with the variable ``u`` added
        (int32).  Each degree sorts every variable into its rows and ranks
        them, ``_BLOCK_BYTES`` of candidates at a time."""
        out = np.empty((self.offsets[self.M], self.d), dtype=np.int32)
        for m in range(self.M):
            block, flat = self._block(m)[:, :m], out[self.offsets[m] : self.offsets[m + 1]].reshape(-1)
            step = _BLOCK_BYTES // (8 * (m + 1))
            for lo in range(0, flat.size, step):
                at = np.arange(lo, min(lo + step, flat.size))
                cols = np.sort(np.column_stack([block[at // self.d], at % self.d]), axis=1)
                flat[lo : lo + step] = self.offsets[m + 1] + self._rank(cols)
        return out

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
            last = self._block(h)[:, h - 1]
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
        the transposed covariates, every degree up to ``ceil(M / 2)`` and the
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
    # each degree-m row extends a degree-(m - 1) row by one variable >= its last
    rows = np.full((count, M), -1, dtype=np.int64)
    prev, low, at = rows[:1, :0], np.zeros(1, dtype=np.int64), 1
    for m in range(1, M + 1):
        counts = d - low
        src = np.repeat(np.arange(len(prev)), counts)
        ends = np.cumsum(counts)
        low = np.arange(ends[-1]) - np.repeat(ends - counts, counts) + low[src]
        block = rows[at : at + len(src), :m]
        block[:, : m - 1] = prev[src]
        block[:, m - 1] = low
        prev, at = block, at + len(src)
    assert at == count
    return MultiIndexSet(d, M, rows)


def _caller_level() -> int:
    """The ``stacklevel``, for a warning its caller raises, of the first frame outside the package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _kahan_add(t: np.ndarray, comp: np.ndarray, delta: np.ndarray) -> None:
    """Compensated ``t += delta``, overwriting ``delta``."""
    delta -= comp
    s = t + delta
    err = s - t
    err -= delta
    comp[:] = err
    t[:] = s


def _monomial_space(iset: MultiIndexSet, records: int) -> list:
    """Buffers for the monomials of degrees 2 to ``ceil(M / 2)`` of up to
    ``records`` records, which ``_delta`` fills; kept across blocks, so that
    no block maps fresh pages."""
    return [np.empty(records * prefix.size) for prefix, _ in iset.parent[2:]]


def _delta(iset: MultiIndexSet, base: np.ndarray, G: np.ndarray | None, space=None) -> np.ndarray:
    """Statistics of one block of records: ``base`` is ``(B, d)`` (``y x`` for
    raw monomial sums, else ``x``) and ``G`` the ``(B, M + 1)`` degree weights,
    ``None`` for raw sums.

    Degrees 0 to 2 come from ``base`` as column sums and one Gram product.
    For degree 3 and up, feature-major ``(k, B)`` monomials are built only up
    to degree ``ceil(M / 2)``, and each chunk of ``MultiIndexSet.halves``
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
        pairs = iset._block(2)
        delta[iset.offsets[2] : iset.offsets[3]] = (base.T @ weighted)[pairs[:, 0], pairs[:, 1]]
    if iset.M >= 3:
        B = len(base)
        space = _monomial_space(iset, B) if space is None else space
        mono = [None, np.ascontiguousarray(base.T)]
        for (prefix, last), flat in zip(iset.parent[2:], space):
            rows = flat[: prefix.size * B].reshape(prefix.size, B)
            np.take(mono[-1], prefix, axis=0, out=rows, mode="clip")
            rows *= mono[1][last]
            mono.append(rows)
        GT = None if G is None else np.ascontiguousarray(G.T)
        for m in range(3, iset.M + 1):
            heads, tails = mono[m // 2], mono[m - m // 2]
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
        if not (radius > 0):
            raise InvalidInputError(f"approximation radius must be positive, got {radius}")
        if index_set.M > MAX_DEGREE:  # no term can be fitted: refuse before the pass
            raise InvalidInputError(f"degree {index_set.M} exceeds the supported maximum {MAX_DEGREE}")
        self.index_set = index_set
        self.mapping = mapping
        self.radius = float(radius)
        self.t = np.zeros(len(index_set))
        self.comp = np.zeros(len(index_set))
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
        """Accumulated statistics with the compensation terms folded in."""
        return self.t + self.comp

    def copy(self) -> "SuffStats":
        out = copy.copy(self)
        out.t = self.t.copy()
        out.comp = self.comp.copy()
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
        not amortize."""
        iset = self.index_set
        X = np.asarray(_dense(X), dtype=float)
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
        space = _monomial_space(iset, min(step, len(y))) if iset.M >= 3 else None
        for lo in range(0, len(y), step):
            sub = None if G is None else G[lo : lo + step]
            _kahan_add(self.t, self.comp, _delta(iset, base[lo : lo + step], sub, space))
        self.n += len(y)
        return self

    # -- merging -------------------------------------------------------------

    def merge(self, other: "SuffStats") -> "SuffStats":
        """Entry-wise compensated sum of two compatible accumulators."""
        if not self.same_config(other):
            raise ConfigMismatchError(
                f"cannot merge statistics with configs {self.config_key()} "
                f"and {other.config_key()}"
            )
        out = self.copy()
        _kahan_add(out.t, out.comp, other.t.copy())
        _kahan_add(out.t, out.comp, other.comp.copy())
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
    """Serialize to the PGLM binary format (compensation folded into entries)."""
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
    body = header + stats.values().astype("<f8").tobytes()
    return body + struct.pack("<I", crc32c(body))


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
    # the count stops once it passes the payload, so a hostile header is cheap
    payload = body[_HEADER.size :]
    entries = len(payload) // 8
    count = 1
    for m in range(1, M + 1):
        count = count * (d + m) // m
        if count > entries:
            break
    if d < 1 or len(payload) != 8 * count:
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
    with open(path, "wb") as fh:
        fh.write(serialize(stats))


def load_stats(path) -> SuffStats:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
