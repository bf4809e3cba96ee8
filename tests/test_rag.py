from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import full_scan

from ragfuzz.errors import DimensionMismatch, EmptyIndex, InvalidPolicy, ZeroVector
from ragfuzz.ledger import CostLedger
from ragfuzz.providers import EmbeddingService, HashEmbedder, approx_tokens
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


def test_a_second_index_chunks_call_is_refused(tmp_path):
    embedder = HashEmbedder(dim=32)
    for idx in (VectorIndex(), VectorIndex(directory=tmp_path / "index")):
        idx.index_chunks(_chunks(5), embedder)
        with pytest.raises(ValueError, match="built already"):
            idx.index_chunks(_chunks(5, "other"), embedder)
        assert len(idx) == 5
    loaded = VectorIndex.load(tmp_path / "index")
    with pytest.raises(ValueError, match="built already"):
        loaded.index_chunks(_chunks(5, "other"), embedder)


def test_repeated_chunk_ids_are_refused(tmp_path):
    chunks = [Chunk("a#0", "a", "first", 0), Chunk("b#0", "b", "other", 0),
              Chunk("a#0", "a", "second", 0)]
    idx = VectorIndex(directory=tmp_path / "index")
    with pytest.raises(ValueError, match="chunk ids repeat"):
        idx.index_chunks(chunks, HashEmbedder(dim=16))
    assert len(idx) == 0 and not (tmp_path / "index").exists()


def test_dim_mismatch_on_add():
    idx = VectorIndex(dim=8)
    with pytest.raises(DimensionMismatch):
        idx.index_chunks(_chunks(1), HashEmbedder(dim=16))
    assert len(idx) == 0


def test_count_conservation_across_docs():
    rng = random.Random(3)
    chunks = [
        chunk
        for d in range(27)
        for chunk in chunk_document(
            f"doc{d}", _synthetic_doc(rng, rng.randint(200, 3000)), ChunkPolicy(400, 50)
        )
    ]
    idx = VectorIndex()
    idx.index_chunks(chunks, HashEmbedder(dim=32))
    assert len(idx) == len(chunks) > 27


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
    idx = VectorIndex(directory=tmp_path / "index")
    chunks = _chunks(6)
    idx.index_chunks(chunks, embedder)
    assert sorted(p.name for p in (tmp_path / "index").iterdir()) == [
        VectorIndex.BATCHES, VectorIndex.MANIFEST, VectorIndex.MATRIX, VectorIndex.META
    ]
    loaded = VectorIndex.load(tmp_path / "index")
    assert len(loaded) == 6
    a = idx.retrieve("chunk text number 2", 2.0, 4, embedder)
    b = loaded.retrieve("chunk text number 2", 2.0, 4, embedder)
    assert [(r.chunk.chunk_id, r.distance) for r in a] == [
        (r.chunk.chunk_id, r.distance) for r in b
    ]


def test_a_rebuild_over_a_logged_build_embeds_only_what_its_rows_do_not_hold(tmp_path):
    embedder = HashEmbedder(dim=16)
    first = [Chunk(f"d#{i}", "d", t, i) for i, t in enumerate(["alpha", "alpha", "beta"])]
    VectorIndex(directory=tmp_path).index_chunks(first, embedder)
    matrix = (tmp_path / VectorIndex.MATRIX).read_bytes()
    # the same chunks again, as after a kill before meta.json: every batch is logged
    ledger = CostLedger()
    again = VectorIndex(directory=tmp_path)
    again.index_chunks(first, EmbeddingService(embedder, ledger))
    assert len(ledger) == 0 and (tmp_path / VectorIndex.MATRIX).read_bytes() == matrix
    assert _hits(again, "beta", 2.0, 1, embedder) == [("d#2", 0.0)]
    # the same texts in other rows match no logged batch: the build starts over
    moved = [Chunk(f"d#{i}", "d", t, i) for i, t in enumerate(["alpha", "beta", "beta"])]
    VectorIndex(directory=tmp_path).index_chunks(moved, EmbeddingService(embedder, ledger))
    assert len(ledger) == 1
    assert [row.tobytes() for row in np.load(tmp_path / VectorIndex.MATRIX)] == [
        embedder.embed_text(c.text).tobytes() for c in moved
    ]
    assert len((tmp_path / VectorIndex.BATCHES).read_text().splitlines()) == 1


# --- exactness of the one-pass scan at paper scale ---

PAPER_ROWS, PAPER_DIM = 1000, 1536


def _paper_index(directory=None):
    """1000 chunks at dim 1536; texts repeat every 900 rows, so ties occur.
    The rows go to directory's embeddings.npy, or else to a temporary file."""
    embedder = HashEmbedder(dim=PAPER_DIM, seed=7)
    chunks = [
        Chunk(f"doc{i % 37}#{i // 37}", f"doc{i % 37}", f"paper-scale fragment {i % 900}", i // 37)
        for i in range(PAPER_ROWS)
    ]
    idx = VectorIndex(directory=directory)
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
    idx, chunks, vectors, embedder = _paper_index(tmp_path / "index")
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
    rows = list(np.random.default_rng(2).standard_normal((PAPER_ROWS, PAPER_DIM)))
    rows[500] = np.zeros(PAPER_DIM)
    zero, _, table = _table_index(rows)
    with pytest.raises(ZeroVector):
        zero.retrieve("row 1", 2.0, 3, table)


# --- one copy of the corpus vectors ---

def _corpus(n):
    return [Chunk(f"doc#{i}", "doc", f"corpus fragment {i}", i) for i in range(n)]


def test_indexing_and_a_retrieve_hold_the_corpus_matrix_once(tmp_path):
    # 2000 rows, so one EMBED_BATCH of float64 in flight is 3% of the matrix
    n, dim = 2000, 1536
    for cache in (None, tmp_path / "embeddings.cache.jsonl"):
        service = EmbeddingService(HashEmbedder(dim=dim), CostLedger(), cache_path=cache)
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
        # the float32 screen is 0.5 of the float64 matrix; no float64 copy fits
        assert peak <= 0.6 * n * dim * 8, cache


def test_the_index_keeps_its_rows_out_of_the_embedding_cache(tmp_path):
    ledger = CostLedger()
    cache = tmp_path / "embeddings.cache.jsonl"
    service = EmbeddingService(HashEmbedder(dim=64), ledger, cache_path=cache)
    chunks = _corpus(100)
    idx = VectorIndex(directory=tmp_path / "index")
    idx.index_chunks(chunks, service)
    assert service._cache == {} and not cache.exists()
    assert len(ledger) == 2  # one entry per batch, of 64 and 36 texts
    rows = np.load(tmp_path / "index" / VectorIndex.MATRIX)
    # a query equal to a chunk's text is embedded and billed like any other
    assert service.embed_text(chunks[70].text).tobytes() == rows[70].tobytes()
    assert len(ledger) == 3 and len(cache.read_text().splitlines()) == 1


def test_repeated_texts_are_embedded_once_into_each_of_their_rows(tmp_path):
    backend = HashEmbedder(dim=32)
    ledger = CostLedger()
    service = EmbeddingService(backend, ledger)
    texts = ["alpha", "beta", "alpha", "gamma", "beta"]
    idx = VectorIndex(directory=tmp_path)
    idx.index_chunks([Chunk(f"d#{i}", "d", t, i) for i, t in enumerate(texts)], service)
    matrix = np.load(tmp_path / VectorIndex.MATRIX)
    assert [row.tobytes() for row in matrix] == [backend.embed_text(t).tobytes() for t in texts]
    # one batch of the three distinct texts
    assert [e.input_tokens for e in ledger.entries()] == [
        sum(map(approx_tokens, ("alpha", "beta", "gamma")))
    ]
    assert _hits(idx, "gamma", 2.0, 1, service) == [("d#3", 0.0)]
    assert len(ledger) == 2  # the query is embedded, not read from its row


# --- the float32 screen against the full float64 scan ---

class TableEmbedder:
    """Embeds each known text to the vector the test gave it."""

    def __init__(self, table: dict[str, np.ndarray]):
        self.table = {text: np.asarray(v, dtype=np.float64) for text, v in table.items()}
        self.dim = len(next(iter(self.table.values())))

    def embed_text(self, text: str) -> np.ndarray:
        return self.table[text]

    def embed_texts(self, texts):
        return np.array([self.table[text] for text in texts])


def _table_index(rows: list[np.ndarray]):
    """An index of one chunk per row, with chunk i's text "row i"; also
    returns the chunks and an embedder that knows each row's text."""
    chunks = [Chunk(f"c{i}", f"doc{i % 7}", f"row {i}", i) for i in range(len(rows))]
    embedder = TableEmbedder({c.text: v for c, v in zip(chunks, rows)})
    idx = VectorIndex()
    idx.index_chunks(chunks, embedder)
    return idx, chunks, embedder


def _against_full_scan(idx, chunks, matrix, embedder, queries, cases):
    for name, q in queries.items():
        embedder.table[name] = np.asarray(q, dtype=np.float64)
        for threshold, k in cases:
            want = full_scan(chunks, matrix, embedder.table[name], threshold, k)
            assert _hits(idx, name, threshold, k, embedder) == want, (name, threshold, k)


def test_screen_sees_1_ulp_apart_rows_around_the_kth_distance_and_the_threshold():
    rng = np.random.default_rng(17)
    base = rng.standard_normal(PAPER_DIM)
    q = base + 0.9 * rng.standard_normal(PAPER_DIM)
    cluster = []
    for _ in range(40):  # each component of base, one float64 ulp up, down or kept
        step = rng.integers(-1, 2, PAPER_DIM)
        toward = np.where(step > 0, np.inf, -np.inf)
        cluster.append(np.where(step == 0, base, np.nextafter(base, toward)))
    # rows a few float32 rounding errors apart, which the screen ranks in
    # another order than the exact scan does
    apart = np.random.default_rng(17)
    other = apart.standard_normal(PAPER_DIM)
    q2 = other + 0.9 * apart.standard_normal(PAPER_DIM)
    close = [other + 3e-7 * apart.standard_normal(PAPER_DIM) for _ in range(40)]
    filler = list(rng.standard_normal((200, PAPER_DIM)))
    matrix = np.array(cluster + close + filler)
    images = {(v / np.linalg.norm(v)).astype(np.float32).tobytes() for v in cluster}
    assert len(images) <= 3  # the screen cannot tell most of the cluster apart
    idx, chunks, embedder = _table_index(list(matrix))
    everything = full_scan(chunks, matrix, q, 2.0, len(matrix))
    cluster_dists = sorted({d for cid, d in everything if int(cid[1:]) < len(cluster)})
    assert len(cluster_dists) >= 3  # the exact scores differ in their last bits
    unit = lambda v: (v / np.linalg.norm(v)).astype(np.float32)  # noqa: E731
    screened = np.array([float(np.vecdot(unit(v), unit(q2))) for v in close])
    best = np.argmin([cosine_distance(v, q2) for v in close])
    assert np.count_nonzero(screened > screened[best]) >= 3
    cases = [(2.0, k) for k in (1, 5, 20, 39, 40, 41)]
    for d in cluster_dists:  # thresholds on, just above and just below a row's distance
        cases += [(d, 10), (float(np.nextafter(d, 3.0)), 25), (float(np.nextafter(d, 0.0)), 40)]
    _against_full_scan(idx, chunks, matrix, embedder, {"q": q, "q2": q2}, cases)


def test_screen_keeps_duplicate_rows_and_scores_a_self_query_zero():
    rng = np.random.default_rng(5)
    rows = list(rng.standard_normal((60, PAPER_DIM)))
    rows[10] = rows[30] = rows[50] = rows[3].copy()  # four equal rows
    rows[20] = rows[40] = rows[7].copy()
    idx, chunks, embedder = _table_index(rows)
    matrix = np.array(rows)
    cases = [(2.0, 1), (2.0, 3), (2.0, 4), (2.0, 6), (1e-9, 4), (1.0, 60)]
    _against_full_scan(idx, chunks, matrix, embedder, {"row 3": rows[3], "row 7": rows[7]}, cases)
    hits = _hits(idx, "row 3", 2.0, 4, embedder)
    assert [d for _, d in hits] == [0.0] * 4
    assert _hits(idx, "row 7", 2.0, 1, embedder)[0][1] == 0.0


def test_screen_scores_rows_of_extreme_magnitude_exactly():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(PAPER_DIM)
    near = [q + 0.3 * rng.standard_normal(PAPER_DIM) for _ in range(8)]
    rows = list(rng.standard_normal((40, PAPER_DIM))) + near
    rows += [near[0] * 1e150, near[1] * 1e-150, near[2] * 1e-160, near[3] * 1e145]
    huge, tiny = near[4].copy(), near[5].copy()
    huge[7] = 1e300  # the norm overflows: the exact distance is NaN, never returned
    tiny[7] = 1e-300  # underflows in float32, harmless after the scan
    rows += [huge, tiny]
    matrix = np.array(rows)
    queries = {
        "q": q, "q tiny": q * 1e-160, "q tinier": q * 1e-161, "q huge": q * 1e150,
        "q 1e300": huge,
    }
    cases = [(2.0, 1), (2.0, 4), (2.0, 12), (1.0, 3), (0.9, 60)]
    with np.errstate(all="ignore"):  # the overflowing row's norm, and inf / inf
        idx, chunks, embedder = _table_index(rows)
        _against_full_scan(idx, chunks, matrix, embedder, queries, cases)


def test_concurrent_retrieves_give_the_serial_results(tmp_path):
    idx, _chunks, _vectors, backend = _paper_index()
    service = EmbeddingService(backend, CostLedger(), cache_path=tmp_path / "cache.jsonl")
    queries = [(f"query {i}", 0.99 + i / 100, 1 + i % 6) for i in range(16)]
    queries.append(("paper-scale fragment 5", 2.0, 3))
    serial = [_hits(idx, *query, backend) for query in queries]
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def worker(n):
        barrier.wait()
        order = list(range(len(queries)))
        random.Random(n).shuffle(order)
        got = {i: _hits(idx, *queries[i], service) for i in order}
        results[n] = [got[i] for i in range(len(queries))]

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(result == serial for result in results)
