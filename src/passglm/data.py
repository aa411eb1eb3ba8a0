"""Record streams, libsvm parsing, sparse random projection, shard orchestration.

A :class:`RecordStream` yields its ``(y, X)`` observations in batches,
exactly once per pass, and counts its passes, which is how the single-pass
contract of the statistics builder is audited.  A batch is a dense array or,
from a sparse libsvm file, a CSR matrix.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import pickle
import traceback
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError, PassGlmError
from .mappings import MappingSpec, _binary_labels, _csr_is_smaller, _dense, get_mapping
from .suffstats import SuffStats, enumerate_indices, new_stats

__all__ = [
    "RecordStream",
    "ArrayStream",
    "LibsvmStream",
    "SyntheticStream",
    "ProjectedStream",
    "ProjectionSpec",
    "parse_libsvm",
    "write_libsvm",
    "project",
    "build_stats",
    "run_sharded",
    "synthesize_arrays",
    "synthesize",
]

DEFAULT_BATCH = 8192


class RecordStream:
    """Base class for record sources.

    Subclasses implement ``_iter_batches`` yielding ``(y, X)`` chunks, where
    ``X`` is a dense ``(rows, d)`` array or a ``scipy.sparse`` CSR matrix of
    that shape.  ``materialize`` densifies CSR batches, as the
    exact-likelihood reductions and ``SuffStats.accumulate_batch`` do.  A
    single record is a one-row batch.
    ``passes`` increments every time a fresh iteration starts.
    """

    d: int
    passes: int = 0

    def _iter_batches(self, batch_size: int):
        raise NotImplementedError

    def batches(self, batch_size: int = DEFAULT_BATCH):
        self.passes += 1
        yield from self._iter_batches(batch_size)

    def materialize(self):
        ys, xs = [], []
        for y, X in self.batches():
            ys.append(np.asarray(y, dtype=float))
            xs.append(np.asarray(_dense(X), dtype=float))
        if not ys:
            return np.empty(0), np.empty((0, self.d))
        return np.concatenate(ys), np.vstack(xs)

    def shard(self, index: int, count: int) -> "RecordStream":
        """Round-robin sub-stream containing records ``index, index+count, ...``."""
        return _RoundRobinView(self, index, count)


class _RoundRobinView(RecordStream):
    def __init__(self, base: RecordStream, index: int, count: int):
        if not (0 <= index < count):
            raise InvalidInputError("shard index out of range")
        self.base = base
        self.index = index
        self.count = count
        self.d = base.d

    def _iter_batches(self, batch_size: int):
        for i, y, X in _deal(self.base.batches(batch_size), self.count):
            if i == self.index:
                yield y, X


class ArrayStream(RecordStream):
    """In-memory record source backed by dense arrays."""

    def __init__(self, y, X):
        self.y = np.asarray(y, dtype=float)
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2 or len(self.y) != self.X.shape[0]:
            raise InvalidInputError("y and X shapes do not agree")
        self.d = self.X.shape[1]

    def _iter_batches(self, batch_size: int):
        for lo in range(0, len(self.y), batch_size):
            yield self.y[lo : lo + batch_size], self.X[lo : lo + batch_size]

    def materialize(self):
        return self.y, self.X

    def shard(self, index: int, count: int) -> "ArrayStream":
        return ArrayStream(self.y[index::count], self.X[index::count])

    def __len__(self):
        return len(self.y)


# Characters of text read per parse window (whole lines; ``readlines`` hint).
_WINDOW_CHARS = 1 << 18
# Upper bound on the bytes of one dense (rows, d) float64 batch.
_BATCH_BYTES = 1 << 26

# Byte classes of the window parser: 0 whitespace, 1 newline, 2 token byte,
# 3 colon.  Whitespace is what ``str.split``/``strip`` take as whitespace in
# ASCII, the separators \x1c-\x1f included (non-ASCII text is never classed).
_BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
_BYTE_CLASS[[9, 11, 12, 13, 28, 29, 30, 31, 32]] = 0
_BYTE_CLASS[10] = 1
_BYTE_CLASS[58] = 3
# Digits of the longest index the window parser reads itself: 10**18 - 1 is
# the largest run of nines below 2**63.
_INDEX_DIGITS = 18


def _parse_indices(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The integers spelled by the tokens ``raw[lo:hi]``, read digit by digit
    as ``int`` reads them, or ``None`` unless every token is 1 to
    ``_INDEX_DIGITS`` ASCII digits (other spellings, such as ``+3``, ``1_0``
    or a value past int64, are left to ``int``)."""
    width = hi - lo
    top = int(width.max(initial=0))
    if top > _INDEX_DIGITS:
        return None
    out = np.zeros(width.size, dtype=np.int64)
    for k in range(top):
        live = width > k
        digit = raw[np.where(live, lo + k, lo)] - np.uint8(48)  # a non-digit wraps past 9
        if np.any(live & (digit > 9)):
            return None
        out = np.where(live, 10 * out + digit, out)
    return out


def _parse_window(lines: list[str]):
    """Parse whole libsvm lines with numpy: ``(y, indptr, idx, vals)`` with
    0-based indices and raw labels, or ``None`` when any line is malformed or
    the text is not ASCII.  Tokens are split where ``str.split`` splits them
    and every number goes through the same ``float`` as
    ``LibsvmStream._parse_line``, and every index reads as its ``int`` does
    (``_parse_indices``), so an accepted window gives the same records bit
    for bit."""
    text = "".join(lines)
    if not text.isascii():
        return None
    if "#" in text:
        text = "".join(ln for ln in lines if not ln.lstrip().startswith("#"))
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    cls = _BYTE_CLASS[raw]
    edge = np.diff((cls >= 2).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    line = np.searchsorted(np.flatnonzero(cls == 1), starts)
    is_label = np.ones(starts.size, dtype=bool)
    is_label[1:] = line[1:] != line[:-1]
    # a label holds no colon; a feature exactly one, with text on both sides
    feature = ~is_label
    colons = np.flatnonzero(cls == 3)
    first = np.searchsorted(colons, starts)
    if np.any(np.searchsorted(colons, ends) - first != feature):
        return None
    colon = colons[first[feature]]
    if np.any((colon <= starts[feature]) | (colon >= ends[feature] - 1)):
        return None
    pos = _parse_indices(raw, starts[feature], colon)
    if pos is None:
        return None
    # with colons as spaces, str.split gives label, (index, value)* per record
    tokens = np.array(text.replace(":", " ").split(), dtype=object)
    at = np.cumsum(1 + feature) - (1 + feature)
    try:
        y = np.fromiter(map(float, tokens[at[is_label]]), dtype=float)
        vals = np.fromiter(map(float, tokens[at[feature] + 1]), dtype=float)
    except ValueError:
        return None
    idx = pos - 1
    same = line[feature][1:] == line[feature][:-1]
    if np.any(pos < 1) or np.any(same & (idx[1:] <= idx[:-1])):
        return None
    record = np.cumsum(is_label)[feature] - 1
    indptr = np.zeros(y.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(record, minlength=y.size), out=indptr[1:])
    return y, indptr, idx, vals


class LibsvmStream(RecordStream):
    """Streaming reader of libsvm/svmlight files.

    Labels are read as written (``labels="raw"``) or mapped for binary
    models (``"pm1"`` or ``"01"``) by the rule of
    :meth:`MappingSpec.canonicalize_y`, so a label outside {-1, 0, +1} is an
    error naming its record.  1-based file indices become 0-based.

    The file is read in windows of whole lines, each parsed with numpy; a
    window with a malformed line or non-ASCII text is parsed again line by
    line by :meth:`_parse_line`, the one grammar, and the first malformed
    line raises with its number.  Errors are raised in file order, whatever
    the window size.  Batches hold at most ``batch_size`` rows and at most
    ``_BATCH_BYTES`` of dense covariates.  A
    batch with fewer nonzeros than half its cells is a CSR matrix, which
    stores 16 B per nonzero against 8 B per dense cell; any other batch is a
    dense array.  Either way the rows, and the values ``toarray()`` gives,
    do not depend on the form.
    """

    def __init__(self, path, d: int | None = None, labels: str = "raw"):
        if labels not in ("raw", "pm1", "01"):
            raise InvalidInputError(f"labels must be 'raw', 'pm1' or '01', got {labels!r}")
        self.path = str(path)
        self.labels = labels
        if d is None:
            d = self._infer_dimension()
        self.d = d

    def _infer_dimension(self) -> int:
        # metadata discovery scan; counted as a pass for honesty
        self.passes += 1
        max_idx = 0
        for _, _, idx, _ in self._windows():
            if idx.size:
                max_idx = max(max_idx, int(idx.max()) + 1)
        return max_idx

    def _windows(self, limit: int | None = None):
        """Yield ``(y, indptr, idx, vals)`` per window of lines.  A record's
        bad label, or with ``limit`` an index at or above it, is an error,
        raised in record order along with malformed lines."""
        read = records = 0  # lines and records before this window
        with open(self.path, "r") as fh:
            while lines := fh.readlines(_WINDOW_CHARS):
                window, error = _parse_window(lines), None
                if window is None:
                    window, error = self._reparse(lines, read)
                y, indptr, idx, vals = window
                if limit is not None and np.any(idx >= limit):
                    # the first record holding one; its last index is its largest
                    rec = np.searchsorted(indptr, np.argmax(idx >= limit), side="right") - 1
                    top = int(idx[indptr[rec + 1] - 1])
                    error = InvalidInputError(
                        f"index {top + 1} exceeds declared dimension {limit} at record {records + rec}"
                    )
                    y = y[:rec]
                if self.labels != "raw":  # the labels before an error raise first
                    y = _binary_labels(y, self.labels, records)
                if error is not None:
                    raise error
                yield y, indptr, idx, vals
                read += len(lines)
                records += len(y)

    def _reparse(self, lines: list[str], read: int):
        """Parse a window line by line with :meth:`_parse_line`: the records
        before its first malformed line and the error naming that line, or
        ``None`` when no line is malformed."""
        ys, idxs, vals, error = [], [np.empty(0, dtype=np.int64)], [np.empty(0)], None
        for lineno, line in enumerate(lines, start=read + 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                y, idx, val = self._parse_line(line)
            except (ValueError, OverflowError) as exc:  # an index past int64 overflows
                error = InvalidInputError(f"{self.path}:{lineno}: malformed record: {exc}")
                break
            ys.append(y)
            idxs.append(idx)
            vals.append(val)
        indptr = np.cumsum([0] + [i.size for i in idxs[1:]], dtype=np.int64)
        return (np.array(ys, dtype=float), indptr, np.concatenate(idxs), np.concatenate(vals)), error

    def _parse_line(self, line: str):
        parts = line.split()
        y = float(parts[0])
        idx = np.empty(len(parts) - 1, dtype=np.int64)
        vals = np.empty(len(parts) - 1)
        prev = -1
        for i, tok in enumerate(parts[1:]):
            pos, val = tok.split(":", 1)
            j = int(pos) - 1
            if j < 0:
                raise ValueError(f"index {pos} is not 1-based")
            if j <= prev:
                raise ValueError(f"indices not strictly increasing at {pos}")
            prev = j
            idx[i] = j
            vals[i] = float(val)
        return y, idx, vals

    def _iter_batches(self, batch_size: int):
        rows = max(1, min(batch_size, _BATCH_BYTES // (8 * max(self.d, 1))))
        batch = _LibsvmBatch(rows, self.d)
        for y, indptr, idx, vals in self._windows(limit=self.d):
            lo = 0
            while lo < len(y):
                take = min(rows - batch.filled, len(y) - lo)
                batch.add(y[lo : lo + take], indptr[lo : lo + take + 1], idx, vals)
                lo += take
                if batch.filled == rows:
                    yield batch.finish()
                    batch = _LibsvmBatch(rows, self.d)
        if batch.filled:
            yield batch.finish()


class _LibsvmBatch:
    """A batch of at most ``rows`` records being filled from parse windows.

    While the batch may still end as CSR its rows are kept as the windows'
    pieces ``(first row, row lengths, idx, vals)``.  Once its stored entries
    reach half the cells of a full batch no batch of these rows can be CSR
    (:func:`_csr_is_smaller`), so the pieces are scattered into a dense array
    and dropped, and later rows are filled in place; a dense file so holds
    at most about one dense batch of pieces besides the batch itself."""

    def __init__(self, rows: int, d: int):
        self.rows, self.d = rows, d
        self.ys, self.pieces, self.X = [], [], None
        self.filled = self.nnz = 0

    def add(self, y, indptr, idx, vals) -> None:
        """Add the records ``y`` whose entries ``indptr`` bounds in ``idx``, ``vals``."""
        span = slice(indptr[0], indptr[-1])
        piece = self.filled, np.diff(indptr), idx[span], vals[span]
        self.ys.append(y)
        self.filled += y.size
        self.nnz += span.stop - span.start
        if self.X is None and not _csr_is_smaller(self.nnz, self.rows * self.d):
            self.X = np.zeros((self.rows, self.d))
            while self.pieces:
                self._scatter(self.X, *self.pieces.pop())
        if self.X is None:
            self.pieces.append(piece)
        else:
            self._scatter(self.X, *piece)

    @staticmethod
    def _scatter(X, first, counts, idx, vals) -> None:
        X[first + np.repeat(np.arange(counts.size), counts), idx] = vals

    def finish(self):
        """The batch ``(y, X)``: CSR when that is smaller than the dense
        array, else dense.  A batch holding a -0.0 stays dense, as
        ``toarray()`` would give +0.0."""
        y = np.concatenate(self.ys)
        if self.X is not None:
            return y, self.X[: self.filled]
        if _csr_is_smaller(self.nnz, self.filled * self.d) and not any(
            np.signbit(vals[vals == 0]).any() for *_, vals in self.pieces
        ):
            _, *parts = zip(*self.pieces)
            counts, idx, vals = map(np.concatenate, parts)
            indptr = np.zeros(y.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return y, sp.csr_matrix((vals, idx, indptr), shape=(y.size, self.d))
        X = np.zeros((y.size, self.d))
        for piece in self.pieces:
            self._scatter(X, *piece)
        return y, X


def parse_libsvm(path, d: int | None = None, labels: str = "raw") -> LibsvmStream:
    """Open a libsvm-format file as a replayable record stream."""
    return LibsvmStream(path, d=d, labels=labels)


# Covariate cells formatted at a time by ``write_libsvm``.
_WRITE_CELLS = 1 << 14


def write_libsvm(path, y, X) -> None:
    """Write dense records in libsvm format (1-based indices, zeros omitted)."""
    y = np.asarray(y)
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise InvalidInputError(f"{len(y)} labels do not match X of shape {X.shape}")
    with open(path, "w") as fh:
        _write_records(fh, y, X)


def _write_records(fh, y: np.ndarray, X: np.ndarray) -> None:
    """Append the dense records ``(y, X)`` to the open text file ``fh`` as
    :func:`write_libsvm` writes them."""
    # blocks of rows keep the formatted text small next to X
    step = max(1, _WRITE_CELLS // max(X.shape[1], 1))
    for lo in range(0, len(y), step):
        block = X[lo : lo + step]
        rows, cols = np.nonzero(block)
        cells = [f"{j}:{v:.17g}" for j, v in zip((cols + 1).tolist(), block[rows, cols].tolist())]
        bounds = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        for i, label in enumerate(y[lo : lo + step].tolist()):
            text = f"{int(label)}" if float(label).is_integer() else repr(float(label))
            fh.write(" ".join([text, *cells[bounds[i] : bounds[i + 1]]]) + "\n")


# --- synthetic data ----------------------------------------------------------


def _ball_covariates(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return z * radii[:, None]


def _true_theta(theta_true, d: int, n: int, seed: int) -> np.ndarray:
    """``theta_true`` as a length-``d`` view, one value broadcast, after
    checking that it is finite, that it holds 1 or ``d`` values and that
    ``d >= 1``, ``n >= 0`` and ``seed >= 0``."""
    if d < 1 or n < 0:
        raise InvalidInputError(f"synthetic data needs d >= 1 and n >= 0, got d={d}, n={n}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    theta = np.asarray(theta_true, dtype=float)
    if theta.ndim > 1 or theta.size not in (1, d):
        raise InvalidInputError(f"theta takes 1 or d={d} values, got {theta.size} in shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError(f"theta must be finite, got {theta.tolist()}")
    return np.broadcast_to(theta, (d,))


def synthesize_arrays(model: str, d: int, n: int, seed: int, theta_true, scale: float | None = None):
    """Generate ``(y, X)`` from the named model with covariates uniform in the
    unit ball."""
    sample = get_mapping(model, scale).sample
    theta_true = _true_theta(theta_true, d, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    X = _ball_covariates(rng, n, d)
    return sample(rng, X @ theta_true), X


class SyntheticStream(RecordStream):
    """Deterministic on-the-fly generator of model data.  Records are drawn
    in blocks of ``DEFAULT_BATCH``, block ``k`` from ``SeedSequence([seed, 1 +
    k])``, and cut into the requested batches: memory stays bounded whatever
    ``n`` is, and the records do not depend on the batch size."""

    def __init__(self, model: str, d: int, n: int, seed: int, theta_true, scale: float | None = None):
        self.d = d
        self.n = n
        self.seed = seed
        self.theta_true = _true_theta(theta_true, d, n, seed).copy()
        self._sample = get_mapping(model, scale).sample

    def _iter_batches(self, batch_size: int):
        y, X = np.empty(0), np.empty((0, self.d))  # drawn and not yet yielded
        for block, lo in enumerate(range(0, self.n, DEFAULT_BATCH)):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1 + block]))
            X_new = _ball_covariates(rng, min(DEFAULT_BATCH, self.n - lo), self.d)
            y_new = self._sample(rng, X_new @ self.theta_true)
            y, X = (np.concatenate([y, y_new]), np.vstack([X, X_new])) if len(y) else (y_new, X_new)
            while len(y) >= batch_size:
                yield y[:batch_size], X[:batch_size]
                y, X = y[batch_size:], X[batch_size:]
        if len(y):
            yield y, X

    def __len__(self):
        return self.n


def synthesize(model: str, d: int, n: int, seed: int, theta_true, path, scale: float | None = None) -> dict:
    """Write a synthetic libsvm file plus a JSON manifest recording the truth."""
    theta_true = _true_theta(theta_true, d, n, seed)
    y, X = synthesize_arrays(model, d, n, seed, theta_true, scale=scale)
    write_libsvm(path, y, X)
    manifest = {
        "schema_version": 1,
        "model": model,
        "d": d,
        "n": n,
        "seed": seed,
        "scale": scale,
        "theta_true": theta_true.tolist(),
        "path": str(path),
    }
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


# --- sparse random projection ------------------------------------------------


def _draw(key: np.ndarray, counter) -> np.ndarray:
    """Draw ``counter`` of SplitMix64 streams seeded ``key`` (Steele, Lea & Flood, OOPSLA 2014)."""
    z = key + (np.atleast_1d(counter).astype(np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _count_cdf(n: int, p: float) -> np.ndarray:
    """``P(K <= k)`` for ``k < n``, K ~ Binomial(n, p), from IEEE basic operations only, so the
    same on every platform; the pmf ratio runs both ways from weight 1 at the mode, so none underflows."""
    q, mode = 1.0 - p, min(n, int((n + 1) * p))
    down, up = np.arange(mode, 0, -1), np.arange(mode, n)  # weight k -> k - 1, k -> k + 1
    w = [np.cumprod(down * q / ((n - down + 1) * p))[::-1], [1.0], np.cumprod((n - up) * p / ((up + 1) * q))]
    cum = np.cumsum(np.concatenate(w))
    return cum[:-1] / cum[-1]


@dataclass(frozen=True)
class ProjectionSpec:
    """Seeded sparse random projection from ``input_dim`` to ``output_dim``.

    Entries are ``+-sqrt(s/k)`` with probability ``1/(2s)`` each, else 0, with
    ``s = sqrt(input_dim)`` (Li, Hastie & Church, KDD 2006).  A row draws only
    its nonzeros, from a counter hash of ``(seed, row)`` (see ``_rows``).
    """

    seed: int
    input_dim: int
    output_dim: int

    def __post_init__(self):
        # the seed enters the hash as 64 bits: a negative seed would wrap onto a
        # wide one's bits, so only int64's non-negative range is accepted
        if not 0 <= self.seed < 1 << 63:
            raise InvalidInputError(f"projection seed must be in [0, 2**63), got {self.seed}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidInputError(
                f"projection dimensions must be >= 1, got {self.input_dim} -> {self.output_dim}"
            )

    @property
    def sparsity(self) -> float:
        return math.sqrt(self.input_dim)

    def column(self, j: int) -> np.ndarray:
        """Row ``j`` of the ``(input_dim, output_dim)`` projection matrix."""
        return self._rows([j]).toarray()[0]

    def _rows(self, rows) -> sp.csr_matrix:
        """Rows ``rows`` of the projection matrix, in their order, as a ``(len(rows), output_dim)``
        CSR matrix.  Row ``j`` reads the SplitMix64 stream seeded by draw ``j`` of the one seeded by
        draw ``seed`` of stream 0.  Its draw 0's top 53 bits are a uniform whose inverse CDF is its
        nonzero count K.  Round ``r`` gives draw ``r`` of each row short of K: its top 63 bits modulo
        ``output_dim`` are a position, refused if taken or past the last whole multiple of
        ``output_dim`` (no modulo bias), and its lowest bit is the sign."""
        rows = np.asarray(rows, dtype=np.int64)
        if np.any(out := (rows < 0) | (rows >= self.input_dim)):
            raise InvalidInputError(
                f"covariate index {rows[out][0]} exceeds projection input dimension {self.input_dim}"
            )
        n, limit = self.output_dim, (1 << 63) - (1 << 63) % self.output_dim
        key = _draw(_draw(np.zeros(1, np.uint64), self.seed), rows)
        count = np.searchsorted(_count_cdf(n, 1.0 / self.sparsity), (_draw(key, 0) >> 11) * 2.0**-53, "right")
        code = np.full((rows.size, count.max(initial=0)), 2 * n)  # 2 * position + sign; 2n is free
        have, live, r = np.zeros(rows.size, dtype=np.int64), np.flatnonzero(count), 0
        while live.size:
            r += 1
            bits = _draw(key[live], r)
            at = ((bits >> 1) % n).astype(np.int64)
            ok = (bits >> 1 < limit) & (code[live] >> 1 != at[:, None]).all(axis=1)
            take = live[ok]
            code[take, have[take]] = 2 * at[ok] + (bits[ok] & 1).astype(np.int64)
            have[take] += 1
            live = live[have[live] < count[live]]
        mag, code, indptr = math.sqrt(self.sparsity / n), code[code < 2 * n], np.r_[0, np.cumsum(count)]
        return sp.csr_matrix((np.where(code & 1, -mag, mag), code >> 1, indptr), shape=(rows.size, n))


class ProjectedStream(RecordStream):
    """Stream view applying a sparse random projection to every record.

    A batch, dense or sparse, its columns compacted to the input indices it
    uses, is multiplied by those indices' projection rows, drawn for the
    batch: rows are pure, so none is kept.  An output entry adds its terms in
    the record's input index order, as a per-record sum of columns would.
    """

    def __init__(self, base: RecordStream, spec: ProjectionSpec):
        if spec.input_dim < base.d:
            raise InvalidInputError(
                f"projection input dimension {spec.input_dim} is smaller than "
                f"the stream dimension {base.d}"
            )
        self.base, self.spec, self.d = base, spec, spec.output_dim

    def _product(self, A: sp.csr_matrix) -> np.ndarray:
        used, at = np.unique(A.indices, return_inverse=True)
        A = sp.csr_matrix((A.data, at, A.indptr), shape=(A.shape[0], used.size))
        return (A @ self.spec._rows(used)).toarray()

    def _iter_batches(self, batch_size: int):
        for y, X in self.base.batches(batch_size):
            yield y, self._product(_csr(X))

    def shard(self, index: int, count: int) -> "ProjectedStream":
        """Project only the records of the base stream's shard."""
        return ProjectedStream(self.base.shard(index, count), self.spec)


def _csr(X) -> sp.csr_matrix:
    """CSR form of a batch.  For a dense batch it is what
    ``sp.csr_matrix(X)`` gives, found through a boolean mask, which numpy
    scans several times faster."""
    if sp.issparse(X):
        return X.tocsr()
    flat = np.ravel(X)
    at = np.flatnonzero(flat != 0)
    rows, cols = np.divmod(at, X.shape[1])
    indptr = np.searchsorted(rows, np.arange(X.shape[0] + 1))
    return sp.csr_matrix((flat[at], cols, indptr), shape=X.shape)


def project(stream: RecordStream, spec: ProjectionSpec) -> ProjectedStream:
    """Wrap a stream with the deterministic sparse random projection."""
    return ProjectedStream(stream, spec)


# --- statistics construction and sharding ------------------------------------


def build_stats(
    stream: RecordStream,
    mapping: MappingSpec,
    M: int,
    radius: float,
    batch_size: int = DEFAULT_BATCH,
) -> SuffStats:
    """Single-pass statistics construction over a stream."""
    index_set = enumerate_indices(stream.d, M)
    stats = new_stats(index_set, mapping, radius)
    for y, X in stream.batches(batch_size):
        stats.accumulate_batch(y, X)
    return stats


def run_sharded(
    source: RecordStream,
    shards: int,
    mapping: MappingSpec,
    M: int,
    radius: float,
    batch_size: int = DEFAULT_BATCH,
) -> SuffStats:
    """Accumulate statistics over ``shards`` worker processes and add their
    sums in shard order.

    ``source`` is a :class:`RecordStream`, split round-robin: shard ``i``
    holds the records of ``source.shard(i, shards)``, numbers ``i, i +
    shards, ...``.  A stream whose type splits itself, such as an
    :class:`ArrayStream`, gives each worker its own shard.  Any other stream
    is read once, here, and each batch is dealt out: every worker receives its
    records of the batch over a pipe.  A :class:`ProjectedStream` splits as
    its base does; when the base is dealt, its records go out as sparse rows
    and each worker projects its own.  Either way a worker folds the batches
    that ``build_stats(source.shard(i, shards))`` folds, so the statistics do
    not depend on the route.

    With ``shards == 1`` this is exactly the sequential path.  Workers are
    forked processes, which inherit ``mapping`` and send back only their raw
    sums, so any mapping shards.  When fork is unavailable the shards fold
    here, own shards one after another and dealt records as the stream is
    read once, which changes timing but not the result.  An error of the
    reader is raised as it is.  An error of a worker is raised with
    its own type and a message naming the shard; one that names a record
    (``record_index``) numbers it in the whole stream.  No worker outlives
    the call.  A warning a worker raises is raised again here, once per
    distinct message, after the sums are added.
    """
    if not isinstance(source, RecordStream):
        raise InvalidInputError(
            f"run_sharded reads one RecordStream, not {type(source).__name__}; for several "
            "files, run 'passglm stats build' on each and then 'stats merge' (or pass them "
            "all to 'fit --stats'), or wrap them in one RecordStream, as perfbench's "
            "PartFiles does, whose records run_sharded then deals"
        )
    if shards < 1:
        raise InvalidInputError("shard count must be >= 1")
    if shards == 1:
        return build_stats(source, mapping, M, radius, batch_size=batch_size)
    base = source.base if isinstance(source, ProjectedStream) else source
    streams = None
    if type(base).shard is not RecordStream.shard:
        streams = [source.shard(i, shards) for i in range(shards)]
    job = mapping, M, radius, batch_size
    if "fork" in mp.get_all_start_methods():
        replies = _fork_shards(source, streams, shards, job)
    elif streams is not None:
        replies = [_payload(_fold_shard(s, *job), i, shards) for i, s in enumerate(streams)]
    else:
        replies = _fold_dealt_here(source, shards, job)
    stats, caught = new_stats(enumerate_indices(source.d, M), mapping, radius), {}
    for (t, n), found in replies:
        stats.t += t
        stats.n += n
        caught.update(dict.fromkeys(found))
    for text, category in caught:
        warnings.warn(text, category, stacklevel=2)
    return stats


def _fork_shards(source, streams, count: int, job) -> list[tuple]:
    """The sums and warnings of each shard, each folded in a forked process
    of its own.  With ``streams`` a worker reads its own stream; without,
    ``source`` is read here and dealt (see :func:`run_sharded`)."""
    ctx = mp.get_context("fork")
    projected = isinstance(source, ProjectedStream)
    reader = source.base if projected else source
    conns, procs = [], []

    def send(i: int, piece) -> None:
        try:
            conns[i].send(piece)
        except OSError:  # the worker is gone: raise what stopped it
            _payload(_receive(conns[i], procs[i], i, count), i, count)
            raise PassGlmError(f"shard {i} of {count}: worker stopped reading") from None

    try:
        for i in range(count):
            conn, child = ctx.Pipe()
            if streams is not None:
                stream = streams[i]
            else:
                stream = _DealtStream(child, reader.d)
                if projected:
                    stream = ProjectedStream(stream, source.spec)
            proc = ctx.Process(
                target=_shard_process, args=(child, [*conns, conn], stream, job), daemon=True
            )
            proc.start()
            child.close()  # so that a dead worker reads as end of file, not silence
            conns.append(conn)
            procs.append(proc)
        if streams is None:
            if projected:  # the source counts its pass, as its base does
                source.passes += 1
            batches = reader.batches(job[3])
            for i, y, A in _deal(((y, _csr(X)) for y, X in batches) if projected else batches, count):
                send(i, (y, A))
            for i in range(count):
                send(i, None)
        return [
            _payload(_receive(conn, proc, i, count), i, count)
            for i, (conn, proc) in enumerate(zip(conns, procs))
        ]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _deal(batches, count: int):
    """``(i, y, X)`` for shard ``i``'s records of each batch, which are every
    ``count``-th record of the stream from record ``i``."""
    offset = 0
    for y, X in batches:
        for i in range(count):
            first = (i - offset) % count
            if first < len(y):
                yield i, y[first::count], X[first::count]
        offset += len(y)


def _fold_dealt_here(source, count: int, job) -> list[tuple]:
    """What :func:`_fork_shards` returns for a dealt ``source``, folded here
    as it is read once (a projection gives a record one row in any stream)."""
    mapping, M, radius, batch_size = job
    index_set, caught = enumerate_indices(source.d, M), {}
    parts = [new_stats(index_set, mapping, radius) for _ in range(count)]
    for i, y, X in _deal(source.batches(batch_size), count):
        with warnings.catch_warnings(record=True) as found:
            try:
                parts[i].accumulate_batch(y, X)
            except Exception as exc:  # raised with its shard, as a worker's error is
                _payload(("error", exc, traceback.format_exc()), i, count)
        caught.update(dict.fromkeys((str(w.message), w.category) for w in found))
    return [((part.t, part.n), list(caught)) for part in parts]


class _DealtStream(RecordStream):
    """A worker's shard as the reader deals it: ``(y, X)`` pieces received
    over a pipe, up to ``None``."""

    def __init__(self, conn, d: int):
        self.conn = conn
        self.d = d

    def _iter_batches(self, batch_size: int):
        while (piece := self.conn.recv()) is not None:
            yield piece


def _fold_shard(stream, mapping, M, radius, batch_size):
    """``("ok", (sums, records), warnings)`` of one shard, each warning as
    ``(text, category)``, or ``("error", exception, traceback text)``."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            stats = build_stats(stream, mapping, M, radius, batch_size=batch_size)
        return "ok", (stats.t, stats.n), [(str(w.message), w.category) for w in caught]
    except Exception as exc:  # sent to the parent, which raises it
        return "error", exc, traceback.format_exc()


def _shard_process(conn, inherited, stream, job) -> None:
    """Body of a shard's worker process: fold the shard, send the reply."""
    for parent_end in inherited:  # the parent's ends of this and earlier pipes
        parent_end.close()
    reply = _fold_shard(stream, *job)
    if reply[0] == "error":
        try:
            pickle.loads(pickle.dumps(reply[1]))
        except Exception:  # the exception cannot cross the pipe: send its text
            reply = "error", PassGlmError(f"{type(reply[1]).__name__}: {reply[1]}"), reply[2]
    conn.send(reply)
    conn.close()


def _receive(conn, proc, index: int, count: int):
    """The reply of shard ``index``'s worker; an error if it died without one."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        proc.join()
        raise PassGlmError(
            f"shard {index} of {count}: worker exited with code {proc.exitcode} before replying"
        ) from None


class _WorkerTraceback(Exception):
    """Where a worker's error was raised, as text; the cause of the error
    raised again in the parent."""


def _payload(reply, index: int, count: int) -> tuple:
    """The sums and warnings of a shard's reply.  An error reply is raised
    with the shard named in its message and, for an error that names a
    record (``record_index``), the record numbered in the whole stream."""
    if reply[0] == "ok":
        return reply[1:]
    _, exc, trace = reply
    where = f"shard {index} of {count}"
    if getattr(exc, "record_index", None) is not None:
        record = index + count * exc.record_index
        where += f" (its record {exc.record_index} is record {record} of the stream)"
        exc.record_index = record
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{where}: {exc.args[0]}", *exc.args[1:])
    raise exc from _WorkerTraceback(f"{where}\n{trace}")
