"""Documentation chunking and an embedded flat vector index.

The index is an exhaustive-scan store: campaign corpora are a few thousand
chunks, where exact scan is both faster and simpler than approximate
structures. It persists as one chunk manifest (JSONL) plus one embedding
matrix (.npy) so a campaign directory is self-contained.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, InvalidPolicy, ZeroVector
from .records import from_record


@dataclass(frozen=True)
class Chunk:
    """One retrievable documentation fragment."""

    chunk_id: str
    doc_id: str
    text: str
    ordinal: int


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


def _with_norms(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return matrix, np.sqrt(np.vecdot(matrix, matrix))


class VectorIndex:
    """Flat, exhaustively scanned embedding index with JSON+npy persistence.

    The index holds one row store: a C-contiguous float64 ``(n, dim)``
    matrix, row i the vector of chunk i, with its row norms. ``retrieve``
    scans it, ``save`` writes it and ``load`` adopts the ``.npy`` file as
    it. ``index_chunks`` on an empty index adopts the matrix the embedder
    returns, so the corpus vectors exist once: an ``EmbeddingService``
    caches views of the same rows. Later ``add`` and ``index_chunks`` calls
    build a new matrix and never write into one they adopted.

    The scan uses ``np.vecdot``, which takes the same per-row BLAS ``ddot``
    as ``np.dot`` on two vectors, so every distance equals
    ``cosine_distance`` bit for bit, and with it the
    ``(distance, doc_id, ordinal)`` order. ``M @ q``, ``np.matvec`` and
    ``einsum`` sum in another order, differ in the last ulp on most rows,
    and ``@`` also starts BLAS's thread pool.

    Indexing is idempotent per chunk_id (re-adding overwrites). Mutation is
    not thread-safe; campaigns index once up front and then only read.
    """

    MANIFEST = "chunks.jsonl"
    MATRIX = "embeddings.npy"
    META = "meta.json"

    def __init__(self, dim: int | None = None):
        self.dim = dim
        self._chunks: list[Chunk] = []
        self._row_by_id: dict[str, int] = {}
        # (row matrix, row norms); one attribute so a reader never sees half
        self._rows = _with_norms(np.zeros((0, dim or 0)))

    def __len__(self) -> int:
        return len(self._chunks)

    def add(self, chunk: Chunk, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise DimensionMismatch(f"expected 1-d vector, got shape {vector.shape}")
        self._put([chunk], vector[np.newaxis])

    def index_chunks(self, chunks: list[Chunk], embedder) -> None:
        """Embed every chunk in one ``embed_texts`` call and store the
        returned matrix as the chunks' rows."""
        if chunks:
            self._put(chunks, embedder.embed_texts([c.text for c in chunks]))

    def _put(self, chunks: list[Chunk], matrix) -> None:
        """Store chunks[i] with row i of matrix. A known chunk_id keeps its
        row and takes the new vector; a matrix of new chunks only, put into
        an empty index, becomes the store as it is."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(chunks):
            raise DimensionMismatch(f"{len(chunks)} chunks, embedding matrix {matrix.shape}")
        if self.dim is None:
            self.dim = int(matrix.shape[1])
        if matrix.shape[1] != self.dim:
            raise DimensionMismatch(f"index dim {self.dim}, embedding dim {matrix.shape[1]}")
        old = len(self._chunks)
        source: dict[int, int] = {}  # store row -> the matrix row it takes; the last wins
        for i, chunk in enumerate(chunks):
            row = self._row_by_id.setdefault(chunk.chunk_id, len(self._chunks))
            if row == len(self._chunks):
                self._chunks.append(chunk)
            else:
                self._chunks[row] = chunk
            source[row] = i
        if old == 0 and len(source) == len(chunks):
            store = matrix
        else:
            store = np.empty((len(self._chunks), self.dim))
            if old:
                store[:old] = self._rows[0]
            store[list(source)] = matrix[list(source.values())]
        self._rows = _with_norms(store)

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
        matrix, norms = self._rows
        nq = float(np.linalg.norm(q))
        if nq == 0.0 or not norms.all():
            raise ZeroVector("cosine distance is undefined for the all-zero vector")
        dist = np.clip(1.0 - np.vecdot(matrix, q) / (nq * norms), 0.0, 2.0)
        # An equal row scores within a few ulp of zero; pin it to exactly 0.0.
        for row in np.flatnonzero(dist < 1e-12):
            if np.array_equal(matrix[row], q):
                dist[row] = 0.0
        rows = np.flatnonzero(dist < threshold)
        if len(rows) > k:
            # keep every row tied with the k-th distance for the exact tie-break
            kth = np.partition(dist[rows], k - 1)[k - 1]
            rows = rows[dist[rows] <= kth]
        hits = [RetrievedChunk(self._chunks[row], float(dist[row])) for row in rows]
        hits.sort(key=lambda r: (r.distance, r.chunk.doc_id, r.chunk.ordinal))
        return hits[:k]

    # --- persistence ---

    def save(self, directory: Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / self.MANIFEST, "w", encoding="utf-8") as fh:
            # a Chunk's fields are JSON values already: vars() is its record
            fh.writelines(json.dumps(vars(c), sort_keys=True) + "\n" for c in self._chunks)
        np.save(directory / self.MATRIX, self._rows[0])
        (directory / self.META).write_text(
            json.dumps({"count": len(self._chunks), "dim": self.dim}, sort_keys=True)
        )

    @classmethod
    def load(cls, directory: Path) -> "VectorIndex":
        directory = Path(directory)
        meta = json.loads((directory / cls.META).read_text())
        index = cls(dim=meta["dim"])
        with open(directory / cls.MANIFEST, encoding="utf-8") as fh:
            index._chunks = [from_record(Chunk, json.loads(line)) for line in fh]
        matrix = np.load(directory / cls.MATRIX)
        if matrix.shape != (len(index._chunks), index.dim or 0):
            raise DimensionMismatch(
                f"matrix shape {matrix.shape} vs {len(index._chunks)} chunks of dim {index.dim}"
            )
        index._row_by_id = {c.chunk_id: row for row, c in enumerate(index._chunks)}
        index._rows = _with_norms(matrix)
        return index
