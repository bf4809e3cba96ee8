from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from ragfuzz.errors import DimensionMismatch, EmptyIndex, InvalidPolicy, ZeroVector
from ragfuzz.ledger import CostLedger
from ragfuzz.providers import EmbeddingService, HashEmbedder
from ragfuzz.rag import Chunk, ChunkPolicy, VectorIndex, chunk_document, cosine_distance


# --- chunking ---

def test_short_document_is_one_chunk():
    content = "x" * 100
    chunks = chunk_document("d", content, ChunkPolicy(max_chars=1000, overlap_chars=0))
    assert len(chunks) == 1
    assert chunks[0].text == content
    assert chunks[0].ordinal == 0


def test_paragraph_boundary_preferred():
    para1 = "a" * 600
    para2 = "b" * 600
    content = para1 + "\n\n" + para2
    chunks = chunk_document("d", content, ChunkPolicy(max_chars=800, overlap_chars=0))
    assert len(chunks) == 2
    assert chunks[0].text == para1 + "\n\n"
    assert chunks[1].text == para2


def test_sentence_boundary_when_no_paragraph():
    content = ("one two three. " * 30).strip()  # no blank lines
    chunks = chunk_document("d", content, ChunkPolicy(max_chars=100, overlap_chars=0))
    for c in chunks[:-1]:
        assert c.text.rstrip().endswith("."), c.text[-20:]


def reference_chunker(content: str, max_chars: int, overlap: int) -> list[str]:
    """Independent restatement of the chunking policy used as an oracle."""
    out = []
    pos = 0
    while pos < len(content):
        rest = content[pos:]
        if len(rest) <= max_chars:
            out.append(rest)
            break
        window = rest[:max_chars]
        para = window.rfind("\n\n")
        if para != -1 and para + 2 > overlap:
            cut = para + 2
        else:
            import re

            cut = -1
            for m in re.finditer(r"[.!?][)\"']*[ \t\n]", window):
                if m.end() > overlap:
                    cut = m.end()
            if cut == -1:
                cut = max_chars
        out.append(window[:cut])
        pos += cut - overlap
    return out


def _synthetic_doc(rng: random.Random, size: int) -> str:
    words = ["alpha", "beta", "gamma", "delta", "kernel", "buffer", "queue"]
    pieces = []
    total = 0
    while total < size:
        sentence = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12))) + ". "
        pieces.append(sentence)
        total += len(sentence)
        if rng.random() < 0.15:
            pieces.append("\n\n")
            total += 2
    return "".join(pieces)[:size]


def test_chunker_matches_reference_on_10k_fixture():
    rng = random.Random(42)
    content = _synthetic_doc(rng, 10_000)
    chunks = chunk_document("d", content, ChunkPolicy(max_chars=1000, overlap_chars=100))
    expected = reference_chunker(content, 1000, 100)
    assert [c.text for c in chunks] == expected
    assert [c.ordinal for c in chunks] == list(range(len(expected)))


def test_overlap_reconstruction_property():
    rng = random.Random(99)
    for trial in range(20):
        content = _synthetic_doc(rng, rng.randint(50, 5000))
        max_chars = rng.randint(40, 800)
        overlap = rng.randint(0, max_chars - 1)
        chunks = chunk_document("d", content, ChunkPolicy(max_chars, overlap))
        rebuilt = chunks[0].text + "".join(c.text[overlap:] for c in chunks[1:])
        assert rebuilt == content, f"trial {trial} failed ({max_chars}/{overlap})"
        assert all(len(c.text) <= max_chars for c in chunks)
        assert all(c.text for c in chunks)


def test_invalid_policy():
    with pytest.raises(InvalidPolicy):
        chunk_document("d", "text", ChunkPolicy(max_chars=10, overlap_chars=10))
    with pytest.raises(InvalidPolicy):
        chunk_document("d", "", ChunkPolicy(max_chars=10, overlap_chars=0))


# --- cosine distance ---

def test_identity_distance_exactly_zero():
    v = np.array([0.3, -1.2, 2.0, 0.07])
    assert cosine_distance(v, v) == 0.0


def test_orthogonal_distance_one():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 5.0])
    assert cosine_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_antipodal_distance_two():
    a = np.array([1.0, 2.0, -3.0])
    assert cosine_distance(a, -a) == pytest.approx(2.0, abs=1e-12)


def test_symmetry_and_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        assert abs(cosine_distance(a, b) - cosine_distance(b, a)) < 1e-12
        c = float(rng.uniform(0.1, 10.0))
        assert cosine_distance(a, c * a) < 1e-9


def test_dimension_mismatch_and_zero_vector():
    with pytest.raises(DimensionMismatch):
        cosine_distance(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVector):
        cosine_distance(np.zeros(3), np.ones(3))


# --- index ---

def _chunks(n: int, doc: str = "doc") -> list[Chunk]:
    return [Chunk(f"{doc}#{i}", doc, f"chunk text number {i}", i) for i in range(n)]


def test_index_counts():
    idx = VectorIndex()
    idx.index_chunks(_chunks(5), HashEmbedder(dim=32))
    assert len(idx) == 5
    assert idx.dim == 32


def test_reindex_is_idempotent():
    idx = VectorIndex()
    embedder = HashEmbedder(dim=32)
    idx.index_chunks(_chunks(5), embedder)
    idx.index_chunks(_chunks(5), embedder)
    assert len(idx) == 5
    assert idx.dim == 32


def test_dim_mismatch_on_add():
    idx = VectorIndex(dim=8)
    with pytest.raises(DimensionMismatch):
        idx.add(_chunks(1)[0], np.ones(16))


def test_count_conservation_across_docs():
    embedder = HashEmbedder(dim=32)
    idx = VectorIndex()
    total = 0
    rng = random.Random(3)
    for d in range(27):
        content = _synthetic_doc(rng, rng.randint(200, 3000))
        chunks = chunk_document(f"doc{d}", content, ChunkPolicy(400, 50))
        total += len(chunks)
        idx.index_chunks(chunks, embedder)
    assert len(idx) == total


def test_self_retrieval_distance_zero():
    embedder = HashEmbedder(dim=64)
    idx = VectorIndex()
    chunks = _chunks(10)
    idx.index_chunks(chunks, embedder)
    hits = idx.retrieve(chunks[3].text, threshold=2.0, k=1, embedder=embedder)
    assert hits[0].chunk.chunk_id == chunks[3].chunk_id
    assert hits[0].distance == 0.0


def test_threshold_excludes_everything():
    embedder = HashEmbedder(dim=64)
    idx = VectorIndex()
    idx.index_chunks(_chunks(10), embedder)
    hits = idx.retrieve("something entirely different", threshold=1e-9, k=5, embedder=embedder)
    assert hits == []


def test_retrieve_matches_brute_force_scan():
    embedder = HashEmbedder(dim=64)
    idx = VectorIndex()
    chunks = _chunks(10)
    idx.index_chunks(chunks, embedder)
    query = "kernel buffer query"
    got = idx.retrieve(query, threshold=2.0, k=3, embedder=embedder)

    q = embedder.embed_text(query)
    scan = []
    for c in chunks:
        v = embedder.embed_text(c.text)
        if np.array_equal(q, v):
            d = 0.0
        else:
            d = 1.0 - float(np.dot(q, v)) / (
                math.sqrt(float(np.dot(q, q))) * math.sqrt(float(np.dot(v, v)))
            )
        scan.append((d, c.doc_id, c.ordinal, c.chunk_id))
    scan.sort()
    assert [r.chunk.chunk_id for r in got] == [s[3] for s in scan[:3]]


def test_retrieve_sorted_and_bounded():
    embedder = HashEmbedder(dim=64)
    idx = VectorIndex()
    idx.index_chunks(_chunks(20), embedder)
    hits = idx.retrieve("chunk text number", threshold=2.0, k=7, embedder=embedder)
    assert len(hits) <= 7
    assert all(h.distance < 2.0 for h in hits)
    assert all(a.distance <= b.distance for a, b in zip(hits, hits[1:]))


def test_empty_index_raises():
    with pytest.raises(EmptyIndex):
        VectorIndex().retrieve("q", threshold=1.0, k=1, embedder=HashEmbedder(dim=8))


def test_retrieve_with_max_threshold_and_full_k_returns_everything():
    embedder = HashEmbedder(dim=64)
    idx = VectorIndex()
    chunks = _chunks(15)
    idx.index_chunks(chunks, embedder)
    hits = idx.retrieve("anything at all", threshold=2.0, k=len(idx), embedder=embedder)
    assert len(hits) == len(chunks)
    assert {h.chunk.chunk_id for h in hits} == {c.chunk_id for c in chunks}
    assert all(a.distance <= b.distance for a, b in zip(hits, hits[1:]))


def test_save_load_round_trip(tmp_path):
    embedder = HashEmbedder(dim=32)
    idx = VectorIndex()
    chunks = _chunks(6)
    idx.index_chunks(chunks, embedder)
    idx.save(tmp_path / "index")
    loaded = VectorIndex.load(tmp_path / "index")
    assert len(loaded) == 6
    a = idx.retrieve("chunk text number 2", 2.0, 4, embedder)
    b = loaded.retrieve("chunk text number 2", 2.0, 4, embedder)
    assert [(r.chunk.chunk_id, r.distance) for r in a] == [
        (r.chunk.chunk_id, r.distance) for r in b
    ]


# --- exactness of the one-pass scan at paper scale ---

PAPER_ROWS, PAPER_DIM = 1000, 1536


def _paper_index():
    """1000 chunks at dim 1536; texts repeat every 900 rows, so ties occur."""
    embedder = HashEmbedder(dim=PAPER_DIM, seed=7)
    chunks = [
        Chunk(f"doc{i % 37}#{i // 37}", f"doc{i % 37}", f"paper-scale fragment {i % 900}", i // 37)
        for i in range(PAPER_ROWS)
    ]
    idx = VectorIndex()
    idx.index_chunks(chunks, embedder)
    vectors = [embedder.embed_text(c.text) for c in chunks]
    return idx, chunks, vectors, embedder


def _scalar_scan(chunks, vectors, q, threshold, k):
    scored = sorted(
        (cosine_distance(q, v), c.doc_id, c.ordinal, c.chunk_id) for c, v in zip(chunks, vectors)
    )
    return [(cid, d) for d, _, _, cid in scored if d < threshold][:k]


def _hits(idx, query, threshold, k, embedder):
    return [(r.chunk.chunk_id, r.distance) for r in idx.retrieve(query, threshold, k, embedder)]


def test_scan_equals_scalar_cosine_at_paper_scale(tmp_path):
    idx, chunks, vectors, embedder = _paper_index()
    idx.save(tmp_path / "index")
    loaded = VectorIndex.load(tmp_path / "index")
    rng = random.Random(1536)
    queries = [
        (f"query {rng.randint(0, 10_000)}", rng.uniform(0.5, 2.0), rng.randint(1, 8))
        for _ in range(12)
    ]
    queries += [
        ("paper-scale fragment 5", 2.0, 4),  # two equal rows tie at 0.0
        ("paper-scale fragment 899", 1.0, 1),  # self-query of a unique text
        ("anything at all", 2.0, len(idx)),  # the whole index, in order
    ]
    for query, threshold, k in queries:
        expected = _scalar_scan(chunks, vectors, embedder.embed_text(query), threshold, k)
        assert _hits(idx, query, threshold, k, embedder) == expected, query
        assert _hits(loaded, query, threshold, k, embedder) == expected, query


def test_scan_tie_break_and_self_distance_at_paper_scale():
    idx, _chunks, _vectors, embedder = _paper_index()
    everything = _hits(idx, "paper-scale fragment 5", 2.0, len(idx), embedder)
    assert len(everything) == PAPER_ROWS
    # fragment 5 sits at rows 5 and 905: doc5#0 and doc17#24, ordered by doc_id
    assert everything[:2] == [("doc17#24", 0.0), ("doc5#0", 0.0)]
    assert everything[2][1] > 0.0
    assert _hits(idx, "paper-scale fragment 899", 2.0, 1, embedder) == [("doc11#24", 0.0)]


def test_scan_errors_at_paper_scale():
    idx, _chunks, _vectors, embedder = _paper_index()
    with pytest.raises(DimensionMismatch):
        idx.retrieve("wrong dimension", 2.0, 3, HashEmbedder(dim=64))
    idx.add(Chunk("zero#0", "zero", "zero row", 0), np.zeros(PAPER_DIM))
    with pytest.raises(ZeroVector):
        idx.retrieve("paper-scale fragment 1", 2.0, 3, embedder)


def test_add_after_retrieve_rebuilds_the_scan():
    embedder = HashEmbedder(dim=32)
    idx = VectorIndex()
    idx.index_chunks(_chunks(5), embedder)
    idx.retrieve("warm the scan", 2.0, 1, embedder)
    late = Chunk("late#0", "late", "added after the first retrieve", 0)
    idx.add(late, embedder.embed_text(late.text))
    assert _hits(idx, late.text, 2.0, 1, embedder) == [("late#0", 0.0)]


# --- one copy of the corpus vectors ---

def _corpus(n):
    return [Chunk(f"doc#{i}", "doc", f"corpus fragment {i}", i) for i in range(n)]


def test_indexing_and_a_retrieve_hold_the_corpus_matrix_once():
    n, dim = 300, 512
    service = EmbeddingService(HashEmbedder(dim=dim), CostLedger())
    chunks = _corpus(n)
    warm = VectorIndex()  # numpy's lazy imports and first-call buffers are not the corpus
    warm.index_chunks(_corpus(2), EmbeddingService(HashEmbedder(dim=dim), CostLedger()))
    warm.retrieve("warm-up", 2.0, 1, service)
    idx = VectorIndex()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        idx.index_chunks(chunks, service)
        idx.retrieve("a query after indexing", 2.0, 4, service)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * dim * 8


def test_the_index_scans_the_rows_the_embedding_cache_holds():
    service = EmbeddingService(HashEmbedder(dim=64), CostLedger())
    chunks = _corpus(100)
    idx = VectorIndex()
    idx.index_chunks(chunks, service)
    matrix = idx._rows[0]
    assert matrix.flags.c_contiguous and matrix.dtype == np.float64
    cached = service.embed_text(chunks[70].text)
    assert np.shares_memory(matrix, cached) and not cached.flags.writeable


def test_repeated_texts_and_a_chunk_query_reuse_the_embedded_row():
    backend = HashEmbedder(dim=32)
    ledger = CostLedger()
    service = EmbeddingService(backend, ledger)
    texts = ["alpha", "beta", "alpha", "gamma", "beta"]
    matrix = service.embed_texts(texts)
    assert matrix.shape == (5, 32) and matrix.flags.c_contiguous
    assert [row.tobytes() for row in matrix] == [backend.embed_text(t).tobytes() for t in texts]
    assert len(ledger) == 1
    idx = VectorIndex()
    idx.index_chunks([Chunk(f"d#{i}", "d", t, i) for i, t in enumerate(texts)], service)
    assert idx._rows[0].tobytes() == matrix.tobytes()
    assert service.embed_text("gamma").tobytes() == matrix[3].tobytes()
    assert _hits(idx, "gamma", 2.0, 1, service) == [("d#3", 0.0)]
    assert len(ledger) == 1


def test_overwriting_a_row_leaves_the_cached_vector_alone():
    service = EmbeddingService(HashEmbedder(dim=16), CostLedger())
    chunks = _corpus(3)
    idx = VectorIndex()
    idx.index_chunks(chunks, service)
    before = service.embed_text(chunks[1].text).copy()
    idx.add(Chunk("doc#1", "doc", "a new text for row 1", 1), np.ones(16))
    assert np.array_equal(service.embed_text(chunks[1].text), before)
    assert np.array_equal(idx._rows[0][1], np.ones(16)) and len(idx) == 3


def test_a_chunk_id_repeated_in_one_call_keeps_its_last_vector():
    embedder = HashEmbedder(dim=16)
    chunks = [Chunk("a#0", "a", "first", 0), Chunk("b#0", "b", "other", 0),
              Chunk("a#0", "a", "second", 0)]
    for prior in ([], [Chunk("a#0", "a", "before", 0)]):
        idx = VectorIndex()
        idx.index_chunks(prior, embedder)
        idx.index_chunks(chunks, embedder)
        assert len(idx) == 2
        assert _hits(idx, "second", 2.0, 1, embedder) == [("a#0", 0.0)]
        assert _hits(idx, "other", 2.0, 1, embedder) == [("b#0", 0.0)]
