"""Documentation chunking and an embedded flat vector index.

The index is an exhaustive-scan store: campaign corpora are a few thousand
chunks, where exact scan is both faster and simpler than approximate
structures. It is built once, from every chunk of the corpus, into one
embedding matrix (.npy) written batch by batch as the chunks are embedded,
with one log line per batch so a killed build resumes, then one chunk
manifest (JSONL), then a meta file written by rename that commits the index,
so a campaign directory is self-contained.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, InvalidPolicy, ZeroVector
from .ledger import RecordLog, write_text
from .records import from_record

EMBED_BATCH = 64  # texts per embedding call, ledger entry and index batch line


@dataclass(frozen=True)
class Chunk:
    """One retrievable documentation fragment."""

    chunk_id: str
    doc_id: str
    text: str
    ordinal: int


@dataclass(frozen=True)
class IndexBatch:
    """One line of an index's batch log: a batch of ``texts`` texts whose
    rows are in the row file. ``sha256`` covers the index's shape and each
    text of the batch with the rows that hold it, so a line matches only the
    batch that would write the same rows."""

    texts: int
    sha256: str


@dataclass(frozen=True)
class RetrievedChunk:
    chunk: Chunk
    distance: float


@dataclass(frozen=True)
class ChunkPolicy:
    max_chars: int = 1500
    overlap_chars: int = 200

    def validate(self) -> None:
        if self.max_chars <= 0 or self.overlap_chars < 0 or self.max_chars <= self.overlap_chars:
            raise InvalidPolicy(
                f"require max_chars > overlap_chars >= 0, got {self.max_chars}/{self.overlap_chars}"
            )


_SENTENCE_END_RE = re.compile(r"[.!?][)\"']*[ \t\n]")


def _pick_cut(window: str, overlap: int) -> int:
    """Cut position within a full window: paragraph, then sentence, then hard.

    The cut must exceed ``overlap`` so the next chunk makes progress after
    rewinding by the overlap.
    """
    para = window.rfind("\n\n")
    if para != -1 and para + 2 > overlap:
        return para + 2
    best = -1
    for m in _SENTENCE_END_RE.finditer(window):
        if m.end() > overlap:
            best = m.end()
    if best != -1:
        return best
    return len(window)


def chunk_document(doc_id: str, content: str, policy: ChunkPolicy | None = None) -> list[Chunk]:
    """Split a document into overlapping chunks of at most max_chars.

    Boundaries prefer paragraph breaks, then sentence ends, then a hard cut.
    Consecutive chunks share exactly ``overlap_chars`` characters, so
    ``chunks[0].text + "".join(c.text[overlap:] for c in chunks[1:])``
    reconstructs the input.
    """
    policy = policy or ChunkPolicy()
    policy.validate()
    if not content:
        raise InvalidPolicy(f"document {doc_id!r} is empty")
    max_chars, overlap = policy.max_chars, policy.overlap_chars
    chunks: list[Chunk] = []
    pos = 0
    ordinal = 0
    while pos < len(content):
        if len(content) - pos <= max_chars:
            text = content[pos:]
            chunks.append(Chunk(f"{doc_id}#{ordinal}", doc_id, text, ordinal))
            break
        cut = _pick_cut(content[pos : pos + max_chars], overlap)
        chunks.append(Chunk(f"{doc_id}#{ordinal}", doc_id, content[pos : pos + cut], ordinal))
        pos += cut - overlap
        ordinal += 1
    return chunks


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), clamped into [0, 2].

    Bitwise-identical vectors return exactly 0.0; the analytic value for
    a == b is zero and the fast path keeps self-retrieval exact.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dim {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine distance is undefined for the all-zero vector")
    if np.array_equal(a, b):
        return 0.0
    d = 1.0 - float(np.dot(a, b)) / (na * nb)
    return min(max(d, 0.0), 2.0)


# Rows read, copied or scored at once: the float64 a scan or a load holds.
_BLOCK_BYTES = 1 << 18
# A row or query whose float64 norm lies outside this range is never screened
# out: there float64 squares and products can underflow or overflow, and the
# screen's bound would not hold.
_NORM_RANGE = (2.0**-480, 2.0**480)


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of a
    product of n roundings of unit u."""
    return n * u / (1.0 - n * u)


def _screen_slack(dim: int) -> float:
    """The bound eps on |screened distance - exact distance| at dimension
    dim; the ``VectorIndex`` docstring derives it."""
    return _gamma(dim + 2, 2.0**-24) + 4 * _gamma(dim + 2, 2.0**-53) + 1e-12


def _npy_header(n: int, dim: int) -> bytes:
    """The header ``np.save`` writes before an (n, dim) float64 matrix."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (n, dim)}
    )
    return buf.getvalue()


def _runs(rows: np.ndarray):
    """(i, j) for each run rows[i:j] of consecutive row numbers."""
    cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), len(rows)]
    return [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


class _Rows:
    """The rows of an index: float64 in an .npy file, float32 unit rows and
    float64 norms in memory.

    Row i's float64 bytes sit at ``offset + i * dim * 8`` of an .npy file
    or, with no path, of an anonymous temporary file. The file is
    read and written at explicit offsets only, so threads may read at once,
    and it is closed when the object is dropped. ``rows[r] = vectors`` takes
    each row once: its norm and unit float32 image stay in memory, its bytes
    go to the file.
    """

    def __init__(self, fd: int, offset: int, n: int, dim: int):
        self.fd, self.offset, self.dim = fd, offset, dim
        self.block = max(1, _BLOCK_BYTES // (8 * dim or 1))
        self.screen = np.empty((n, dim), dtype=np.float32)
        self.norms = np.empty(n)
        weakref.finalize(self, os.close, fd)

    @classmethod
    def create(cls, n: int, dim: int, path: Path | None = None) -> "_Rows":
        """Rows of an (n, dim) .npy file at path, or of a temporary file,
        none of them kept yet. The file is cut to its final size; the bytes
        it held already stay, so ``reread`` can keep rows a killed build
        wrote."""
        if path is None:
            fd, name = tempfile.mkstemp(suffix=".npy")
            os.unlink(name)
        else:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        header = _npy_header(n, dim)
        rows = cls(fd, len(header), n, dim)
        _pwrite_all(fd, header, 0)
        os.ftruncate(fd, len(header) + n * dim * 8)
        return rows

    @classmethod
    def open(cls, path: Path, n: int, dim: int) -> "_Rows":
        """The rows of the (n, dim) float64 .npy file at path, read into
        memory one block at a time."""
        fd = os.open(path, os.O_RDONLY)
        try:
            with open(fd, "rb", closefd=False) as fh:
                version = np.lib.format.read_magic(fh)
                read_header = {
                    (1, 0): np.lib.format.read_array_header_1_0,
                    (2, 0): np.lib.format.read_array_header_2_0,
                }[version]
                shape, fortran, dtype = read_header(fh)
                offset = fh.tell()
        except BaseException:
            os.close(fd)
            raise
        rows = cls(fd, offset, n, dim)
        if shape != (n, dim) or dtype != np.float64 or fortran:
            raise DimensionMismatch(
                f"matrix {shape} {dtype} vs {n} chunks of dim {dim} in C-order float64"
            )
        rows.reread(np.arange(n))
        return rows

    def reread(self, rows) -> None:
        """Keep rows the file holds already, read one block at a time."""
        rows = np.asarray(rows, dtype=np.intp)
        for lo in range(0, len(rows), self.block):
            part = rows[lo : lo + self.block]
            self._keep(part, self.read(part))

    def _keep(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        norms = np.sqrt(np.vecdot(vectors, vectors))
        self.norms[rows] = norms
        with np.errstate(all="ignore"):  # a zero, inf or NaN norm
            for i, j in _runs(rows):  # divided in float64, cast into the screen, no temporary
                first = int(rows[i])
                np.divide(
                    vectors[i:j], norms[i:j, np.newaxis],
                    out=self.screen[first : first + j - i], casting="same_kind",
                )
        lo, hi = _NORM_RANGE
        self.screen[rows[~((norms >= lo) & (norms <= hi))]] = 0.0  # never screened out

    def __setitem__(self, rows, vectors) -> None:
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        vectors = np.ascontiguousarray(vectors, dtype=np.float64).reshape(len(rows), self.dim)
        self._keep(rows, vectors)
        for i, j in _runs(rows):
            _pwrite_all(self.fd, vectors[i:j], self.offset + int(rows[i]) * 8 * self.dim)

    def read(self, rows) -> np.ndarray:
        """The float64 vectors of rows, read from the file."""
        rows = np.asarray(rows, dtype=np.intp)
        out = np.empty((len(rows), self.dim))
        for i, j in _runs(rows):
            _pread_into(self.fd, out[i:j], self.offset + int(rows[i]) * 8 * self.dim)
        return out

    def candidates(self, q: np.ndarray, nq: float, threshold: float, k: int) -> np.ndarray:
        """The rows the float32 screen cannot rule out, in row order: every
        other row scores at least threshold, or worse than k rows that are
        returned."""
        lo, hi = _NORM_RANGE
        if not lo <= nq <= hi:
            return np.arange(len(self.norms))
        eps = _screen_slack(self.dim)
        screened = np.vecdot(self.screen, (q / nq).astype(np.float32)).astype(np.float64)
        screened = np.clip(1.0 - screened, 0.0, 2.0)
        unsafe = ~((self.norms >= lo) & (self.norms <= hi))
        near = screened < threshold + eps
        ranked = screened[near & ~unsafe]
        if len(ranked) > k:
            near &= screened <= np.partition(ranked, k - 1)[k - 1] + 2 * eps
        return np.flatnonzero(near | unsafe)

    def distances(self, rows: np.ndarray, q: np.ndarray, nq: float) -> np.ndarray:
        """The exact distances of rows, scored in float64 one block at a time."""
        dist = np.empty(len(rows))
        for lo in range(0, len(rows), self.block):
            part = rows[lo : lo + self.block]
            vectors = self.read(part)
            d = np.clip(1.0 - np.vecdot(vectors, q) / (nq * self.norms[part]), 0.0, 2.0)
            # An equal row scores within a few ulp of zero; pin it to exactly 0.0.
            for i in np.flatnonzero(d < 1e-12):
                if np.array_equal(vectors[i], q):
                    d[i] = 0.0
            dist[lo : lo + len(part)] = d
        return dist


def _pwrite_all(fd: int, data, pos: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, pos)
        view, pos = view[written:], pos + written


def _pread_into(fd: int, out: np.ndarray, pos: int) -> None:
    view = memoryview(out).cast("B")
    while view:
        got = os.preadv(fd, [view], pos)
        if not got:
            raise DimensionMismatch(f"embedding rows end at byte {pos}, before the rows asked for")
        view, pos = view[got:], pos + got


class VectorIndex:
    """Flat, exhaustively scanned embedding index with JSON+npy persistence.

    ``index_chunks`` builds the index once: row i holds the vector of chunk
    i. Its exact float64 bytes live in an ``.npy`` file:
    ``directory/embeddings.npy`` when the index was given a directory (the
    rows are written there batch by batch, each batch followed by its line
    in ``batches.jsonl``, then ``chunks.jsonl``, then ``meta.json``, by
    rename, which commits the index), the loaded file after ``load``, and an
    anonymous temporary file otherwise.
    Memory holds only each row's float64 norm ``n_x = ||x||`` and the
    float32 image of its unit vector, ``x32 = fl32(x / n_x)``: half the
    bytes of the rows. Unit vectors keep every float32 value within
    [-1, 1], so none overflows and underflow costs only an absolute error.

    ``retrieve`` screens every row with ``np.vecdot(x32, fl32(q / n_q))``.
    For any summation order, a float32 dot product of d terms is within
    gamma_d * sum |x_i q_i| of the exact one, gamma_d = d*u / (1 - d*u),
    u = 2^-24 (Higham, Accuracy and Stability, 3.1); the two casts to float32
    add two more roundings, so gamma_(d+2) bounds the screen's error, and
    sum |x_i q_i| <= 1 for unit vectors by Cauchy-Schwarz. The exact score
    ``1 - fl64(x.q) / (n_q * n_x)`` and the unit rows carry float64
    rounding of at most 4 gamma_(d+2) at u = 2^-53; underflow in float32
    adds at most d * 2^-126. So a screened distance differs from the exact
    one by less than ``eps = _screen_slack(d)``, whose 1e-12 also covers the
    rows pinned to exactly 0.0 (exact distance below 1e-12, equal vectors).
    A row is a candidate when its screened distance is below threshold + eps
    and within 2 eps of the k-th smallest screened distance: any other row
    scores at least threshold, or at least k candidates each score less.
    Rows whose norm lies outside ``_NORM_RANGE``, where float64 can
    underflow or overflow, are always candidates, and a query whose norm
    does makes every row one.
    Only the candidates are read back with ``os.preadv`` and scored in
    float64 with ``np.vecdot``, which takes the same per-row BLAS ``ddot`` as
    ``np.dot`` on two vectors: every returned distance equals
    ``cosine_distance`` bit for bit, and with it the
    ``(distance, doc_id, ordinal)`` order. ``M @ q`` and ``np.matvec`` sum in
    another order, and ``@`` also starts BLAS's thread pool.

    A built index is read-only, so retrieves may run at once.
    """

    MANIFEST = "chunks.jsonl"
    MATRIX = "embeddings.npy"
    META = "meta.json"
    BATCHES = "batches.jsonl"

    def __init__(self, dim: int | None = None, directory: Path | None = None):
        self.dim = dim
        self.directory = Path(directory) if directory else None
        self._chunks: list[Chunk] = []
        self._rows: _Rows | None = None

    def __len__(self) -> int:
        return len(self._chunks)

    def index_chunks(self, chunks: list[Chunk], embedder) -> None:
        """Build the index from every chunk.

        The distinct chunk texts are embedded in order of first appearance,
        EMBED_BATCH per ``embedder.embed_texts`` call, and each vector is
        written into every row that has its text. With a directory, one
        ``IndexBatch`` line follows each batch's rows. A build resumed after
        a kill keeps the rows of the logged batches when every logged line
        matches the batch it would embed now, and embeds the rest; any other
        log, such as one of a doc edited since, starts the build over.
        """
        if self._rows is not None:
            raise ValueError("the index is built already")
        if self.dim is not None and embedder.dim != self.dim:
            raise DimensionMismatch(f"index dim {self.dim}, embedding dim {embedder.dim}")
        if len({c.chunk_id for c in chunks}) != len(chunks):
            raise ValueError("chunk ids repeat")
        dim, rows_of = embedder.dim, {}  # text -> the rows that hold it
        for row, chunk in enumerate(chunks):
            rows_of.setdefault(chunk.text, []).append(row)
        texts = list(rows_of)
        batches = [texts[i : i + EMBED_BATCH] for i in range(0, len(texts), EMBED_BATCH)]
        lines = [
            IndexBatch(len(batch), hashlib.sha256(json.dumps(
                [len(chunks), dim, [[text, rows_of[text]] for text in batch]]
            ).encode("utf-8")).hexdigest())
            for batch in batches
        ]
        log, done = None, 0
        if self.directory is None:
            rows = _Rows.create(len(chunks), dim)
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            rows = _Rows.create(len(chunks), dim, self.directory / self.MATRIX)
            log = RecordLog(self.directory / self.BATCHES, IndexBatch)
            done = len(log.records)
            if log.records != lines[:done]:
                log.path.unlink()
                log, done = RecordLog(log.path, IndexBatch), 0
            kept = texts[: done * EMBED_BATCH]
            rows.reread(sorted(row for text in kept for row in rows_of[text]))
        for batch, line in zip(batches[done:], lines[done:]):
            vectors = embedder.embed_texts(batch)
            targets = [rows_of[text] for text in batch]
            flat = [row for held in targets for row in held]
            if len(flat) > len(batch):  # a repeated text fills each of its rows
                vectors = np.repeat(vectors, [len(held) for held in targets], axis=0)
            rows[flat] = vectors
            if log is not None:
                log.append(line)
        self.dim, self._chunks, self._rows = dim, list(chunks), rows
        if self.directory is not None:
            with open(self.directory / self.MANIFEST, "w", encoding="utf-8") as fh:
                # a Chunk's fields are JSON values already: vars() is its record
                fh.writelines(json.dumps(vars(c), sort_keys=True) + "\n" for c in chunks)
            meta = {"count": len(chunks), "dim": self.dim}
            write_text(self.directory / self.META, json.dumps(meta, sort_keys=True))

    def retrieve(self, query_text: str, threshold: float, k: int, embedder) -> list[RetrievedChunk]:
        """Up to k chunks with distance < threshold, closest first.

        Ties are broken by (doc_id, ordinal) so retrieval is deterministic.
        """
        if not 0.0 < threshold <= 2.0:
            raise ValueError(f"threshold must be in (0, 2], got {threshold}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self._chunks:
            raise EmptyIndex("retrieve on an empty index")
        q = np.asarray(embedder.embed_text(query_text), dtype=np.float64)
        if q.shape != (self.dim,):
            raise DimensionMismatch(f"dim {q.shape} vs {(self.dim,)}")
        rows = self._rows
        nq = float(np.linalg.norm(q))
        if nq == 0.0 or not rows.norms.all():
            raise ZeroVector("cosine distance is undefined for the all-zero vector")
        picked = rows.candidates(q, nq, threshold, k)
        dist = rows.distances(picked, q, nq)
        below = dist < threshold
        picked, dist = picked[below], dist[below]
        if len(picked) > k:
            # keep every row tied with the k-th distance for the exact tie-break
            within = dist <= np.partition(dist, k - 1)[k - 1]
            picked, dist = picked[within], dist[within]
        hits = [RetrievedChunk(self._chunks[row], float(d)) for row, d in zip(picked, dist)]
        hits.sort(key=lambda r: (r.distance, r.chunk.doc_id, r.chunk.ordinal))
        return hits[:k]

    @classmethod
    def load(cls, directory: Path) -> "VectorIndex":
        """The index built into directory; its float64 rows stay in
        ``embeddings.npy``."""
        directory = Path(directory)
        meta = json.loads((directory / cls.META).read_text())
        index = cls(dim=meta["dim"])
        with open(directory / cls.MANIFEST, encoding="utf-8") as fh:
            index._chunks = [from_record(Chunk, json.loads(line)) for line in fh]
        index._rows = _Rows.open(directory / cls.MATRIX, len(index._chunks), index.dim or 0)
        return index
