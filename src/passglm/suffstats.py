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

Both forms run through one kernel, ``_delta``.  A degree-``m`` index splits
into a head (its first ``m // 2`` variables) and a tail (the other
``m - m // 2``), so its entry is the sum over records of a head monomial
times a weighted tail monomial.  The kernel therefore builds record-major
monomials only up to degree ``ceil(M / 2)`` (at d = 10, M = 6, 285 columns
of degrees 1 to 3 instead of all 8,008 indices) and takes each degree's
entries from one matrix product of the head block with the weighted tail
block, read at the cached head and tail positions of
``MultiIndexSet.halves``.  Degree 1 is a (weighted) column sum and degree 2
one whole ``d x d`` Gram matrix.  ``_BLOCK_BYTES`` bounds the monomials above
degree 1 of one block of records and each product of degree 3 or more, whose
heads are split into chunks; with ``M <= 2`` a batch is one block.

Every entry carries a Kahan compensation term so that sharded accumulation
and merge agree with a sequential pass to near machine precision.
"""

from __future__ import annotations

import math
import struct
import warnings
from functools import cached_property, lru_cache

import numpy as np

from .chebyshev import PolyApprox
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
    "accumulate",
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


# Upper bound on the monomials above degree 1 of one block of records, and on
# each matrix product of degree >= 3; chosen by a sweep on d = 10, M = 6.
_BLOCK_BYTES = 1 << 22


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

    def position(self, rows) -> np.ndarray:
        """Positions of multi-indices given as rows shaped like ``self.rows``
        (nondecreasing variables padded with -1, any leading shape).

        This is the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3):
        the rows of degree ``m`` that follow row ``a`` and first differ from it
        in column ``i`` are the nondecreasing ``(m - i)``-tuples of variables
        above ``a_i``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != (self.M,):
            raise InvalidInputError(f"multi-index rows must have {self.M} columns, got {rows.shape}")
        valid = rows >= 0
        m = valid.sum(axis=-1)
        after = np.where(valid, self._tails[rows, m[..., None] - np.arange(self.M)], 0)
        return self.offsets[m + 1] - 1 - after.sum(axis=-1)

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
        nondecreasing variables are the columns of ``cols``; ``position``
        for one degree without padding."""
        j = cols.shape[1]
        after = np.zeros(len(cols), dtype=np.int64)
        for i in range(j):
            after += self._tails[cols[:, i], j - i]
        return self.offsets[j + 1] - self.offsets[j] - 1 - after

    def _block(self, m: int) -> np.ndarray:
        return self.rows[self.offsets[m] : self.offsets[m + 1]]

    @cached_property
    def parent(self) -> list:
        """``parent[j]`` for ``2 <= j <= ceil(M / 2)``: for each index of degree
        ``j``, the position within the degree ``j - 1`` block of the index
        with its last variable dropped."""
        top = (self.M + 1) // 2
        return [None, None] + [self._rank(self._block(j)[:, : j - 1]) for j in range(2, top + 1)]

    @cached_property
    def halves(self) -> list:
        """``halves[m] = (head, tail)`` for ``m >= 2``: for each index of degree
        ``m``, the position of its first ``m // 2`` variables within the degree
        ``m // 2`` block and of its last ``m - m // 2`` within theirs.  ``head``
        is nondecreasing, as a degree block is in lexicographic order."""
        out = [None, None]
        for m in range(2, self.M + 1):
            block = self._block(m)
            out.append((self._rank(block[:, : m // 2]), self._rank(block[:, m // 2 : m])))
        return out


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


# the index sets of sparse records' own coordinates, shared by records with
# as many distinct coordinates; each is no larger than the set they map into
_local_indices = lru_cache(maxsize=16)(enumerate_indices)


def _kahan_add(t: np.ndarray, comp: np.ndarray, delta, at=slice(None)) -> None:
    y = delta - comp[at]
    s = t[at] + y
    comp[at] = (s - t[at]) - y
    t[at] = s


def _delta(iset: MultiIndexSet, base: np.ndarray, G: np.ndarray | None) -> np.ndarray:
    """Statistics of one block of records: ``base`` is ``(B, d)`` (``y x`` for
    raw monomial sums, else ``x``) and ``G`` the ``(B, M + 1)`` degree weights,
    ``None`` for raw sums.

    Record-major monomials are built only up to degree ``ceil(M / 2)``.  The
    entry of a degree-``m`` index is the sum over records of its head
    monomial times its weighted tail monomial (``MultiIndexSet.halves``), so
    each chunk of heads takes one matrix product; the tails a chunk needs are
    a suffix of the tail block in canonical order.
    """
    mono = [None, base]
    for j in range(2, len(iset.parent)):
        mono.append(mono[j - 1][:, iset.parent[j]] * base[:, iset._block(j)[:, j - 1]])
    delta = np.empty(len(iset))
    delta[0] = len(base) if G is None else G[:, 0].sum()
    if iset.M >= 1:
        delta[1 : iset.d + 1] = base.sum(axis=0) if G is None else base.T @ G[:, 1]
    for m in range(2, iset.M + 1):
        heads, tails = mono[m // 2], mono[m - m // 2]
        head, tail = iset.halves[m]
        weighted = tails if G is None else G[:, m, None] * tails
        # degree 2 is the d x d Gram matrix, taken whole as one product
        span = heads.shape[1] if m == 2 else max(1, _BLOCK_BYTES // (8 * tails.shape[1]))
        out = delta[iset.offsets[m] : iset.offsets[m + 1]]
        for a in range(0, heads.shape[1], span):
            lo, hi = np.searchsorted(head, (a, a + span))
            s = tail[lo:hi].min()
            P = heads[:, a : a + span].T @ weighted[:, s:]
            out[lo:hi] = P[head[lo:hi] - a, tail[lo:hi] - s]
    if G is not None:
        delta *= iset.multinom
    return delta


class SuffStats:
    """Accumulated polynomial sufficient statistics for one mapping.

    Single-writer: ``accumulate``/``accumulate_batch`` mutate in place.
    ``merge`` combines two compatible accumulators into a new one.
    """

    def __init__(
        self,
        index_set: MultiIndexSet,
        mapping: MappingSpec,
        radius: float,
        approxes: tuple[PolyApprox, ...] | None = None,
    ):
        if not (radius > 0):
            raise InvalidInputError(f"approximation radius must be positive, got {radius}")
        if not mapping.raw_monomial and approxes is None:
            approxes = fit_terms(mapping, index_set.M, radius)
        if approxes is not None:
            for a in approxes:
                if a.M != index_set.M or a.R != radius:
                    raise ConfigMismatchError(
                        "approximation degree/radius must match the statistics"
                    )
        self.index_set = index_set
        self.mapping = mapping
        self.radius = float(radius)
        self.approxes = approxes
        self.t = np.zeros(len(index_set))
        self.comp = np.zeros(len(index_set))
        self.n = 0
        self._norm_warned = False

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
        if self.config_key() != other.config_key():
            return False
        if (self.approxes is None) != (other.approxes is None):
            return False
        if self.approxes is not None:
            for a, b in zip(self.approxes, other.approxes):
                if not np.array_equal(a.b, b.b):
                    return False
        return True

    def values(self) -> np.ndarray:
        """Accumulated statistics with the compensation terms folded in."""
        return self.t + self.comp

    def copy(self) -> "SuffStats":
        out = SuffStats.__new__(SuffStats)
        out.index_set = self.index_set
        out.mapping = self.mapping
        out.radius = self.radius
        out.approxes = self.approxes
        out.t = self.t.copy()
        out.comp = self.comp.copy()
        out.n = self.n
        out._norm_warned = self._norm_warned
        return out

    # -- accumulation -------------------------------------------------------

    def _check_norm(self, sq_norms) -> None:
        if not self._norm_warned and np.any(np.asarray(sq_norms) > 1.0 + 1e-12):
            self._norm_warned = True
            warnings.warn(
                "covariate 2-norm exceeds 1; the approximation-quality theory "
                "assumes normalized covariates (consider rescaling at ingest)",
                stacklevel=4,
            )

    def accumulate(self, y: float, x) -> "SuffStats":
        """Absorb one record.  ``x`` is a dense 1-D array or an
        ``(indices, values)`` pair of sparse coordinates.  A sparse record
        updates only the statistics of its own coordinates: the kernel runs
        on them alone and its entries are added at their global positions."""
        iset = self.index_set
        if not (isinstance(x, tuple) and len(x) == 2):
            dense = np.asarray(x, dtype=float)
            if dense.ndim != 1:
                raise InvalidInputError("covariate must be a vector or (indices, values)")
            if dense.size != iset.d:
                raise InvalidInputError(f"covariate has dimension {dense.size}, expected {iset.d}")
            return self.accumulate_batch(np.asarray([y], dtype=float), dense[None, :])
        idx = np.asarray(x[0], dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= iset.d):
            raise InvalidInputError(f"covariate index out of range for dimension {iset.d}")
        cols, inv = np.unique(idx, return_inverse=True)
        if not cols.size:  # an empty record still adds to the constant's entry
            cols = np.zeros(1, dtype=np.int64)
        local = np.zeros((1, cols.size))
        local[0, inv] = x[1]  # a repeated index keeps the value assigned last
        sub = _local_indices(cols.size, iset.M, len(iset))
        at = iset.position(np.where(sub.rows >= 0, cols[sub.rows], -1))
        return self._absorb(np.asarray([y], dtype=float), local, sub, at)

    def accumulate_batch(self, y: np.ndarray, X: np.ndarray) -> "SuffStats":
        """Absorb a batch of records ``y: (B,)``, ``X: (B, d)``.  ``X`` is a
        dense array or a ``scipy.sparse`` matrix, which is densified first."""
        X = np.asarray(_dense(X), dtype=float)
        if X.ndim != 2 or X.shape[1] != self.index_set.d:
            raise InvalidInputError(
                f"covariate batch must be (B, {self.index_set.d}), got {X.shape}"
            )
        return self._absorb(np.asarray(y, dtype=float), X, self.index_set, slice(None))

    def _absorb(self, y: np.ndarray, X: np.ndarray, iset: MultiIndexSet, at) -> "SuffStats":
        """Add the statistics of ``iset`` over the records ``(y, X)`` at the
        entries ``at`` of this accumulator, one block of records at a time;
        a block's monomials above degree 1 fill at most ``_BLOCK_BYTES``."""
        if not np.all(np.isfinite(X)):
            bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
            raise NumericError("non-finite covariate value", record_index=self.n + bad)
        y = self.mapping.canonicalize_y(y, first_record=self.n)
        self._check_norm((X * X).sum(axis=1))

        base = y[:, None] * X if self.mapping.raw_monomial else X
        G = None if self.mapping.raw_monomial else degree_weights(self.mapping, self.approxes, y)
        above = sum(map(len, iset.parent[2:]))
        step = max(1, len(y) if above == 0 else _BLOCK_BYTES // (8 * above))
        for lo in range(0, len(y), step):
            sub = None if G is None else G[lo : lo + step]
            _kahan_add(self.t, self.comp, _delta(iset, base[lo : lo + step], sub), at)
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
        _kahan_add(out.t, out.comp, other.t)
        _kahan_add(out.t, out.comp, other.comp)
        out.n = self.n + other.n
        return out


def new_stats(
    index_set: MultiIndexSet,
    mapping: MappingSpec,
    radius: float,
    approxes: tuple[PolyApprox, ...] | None = None,
) -> SuffStats:
    """Zeroed statistics accumulator for ``mapping`` on ``index_set``.

    For non-logistic mappings the per-term polynomial approximations are
    fitted automatically (degree ``index_set.M`` on ``[-radius, radius]``)
    unless supplied.
    """
    return SuffStats(index_set, mapping, radius, approxes)


def accumulate(stats: SuffStats, y, x) -> SuffStats:
    return stats.accumulate(y, x)


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
    """Reconstruct statistics from PGLM bytes, re-deriving the mapping and,
    for general-form models, the folded polynomial coefficients."""
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
    mapping = get_mapping(name, scale if scale > 0 else None)
    stats = SuffStats(enumerate_indices(d, M, cap=cap), mapping, radius)
    stats.t = np.frombuffer(payload, dtype="<f8").astype(float)
    stats.comp = np.zeros(count)
    stats.n = int(n)
    return stats


def save_stats(stats: SuffStats, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(stats))


def load_stats(path, cap: int = DEFAULT_INDEX_CAP) -> SuffStats:
    with open(path, "rb") as fh:
        return deserialize(fh.read(), cap=cap)
