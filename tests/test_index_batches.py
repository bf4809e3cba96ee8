"""Batched embedding against the per-text path it replaced, and the index
build's resume between batches.

fixtures/golden/index_batches.json was written by the per-text code, which
made one backend call, one ledger entry and one cache append per text. The
batched path must embed the same vectors and write the same index bytes in
the same order, and bill the same tokens. Only the number of embedding
ledger entries may change: the index stage now writes one per batch of up to
EMBED_BATCH texts. The index keeps its rows out of the embedding cache,
which holds only query vectors.
"""
from __future__ import annotations

import hashlib
import json
import math
from unittest.mock import ANY

import numpy as np
import pytest

from ragfuzz.campaign import load_config_file, run_campaign
from ragfuzz.ledger import CostLedger, RecordLog
from ragfuzz.providers import EmbeddingService, HashEmbedder
from ragfuzz.rag import EMBED_BATCH, IndexBatch
from ragfuzz.scenarios import build_tiny, materialize_scenario

# 130 texts, 97 distinct: three batches at the per-text path's vectors
TEXTS = [f"embedding input {i % 97}: " + "kernel " * (i % 13) for i in range(130)]

INDEX_FILES = ("index/chunks.jsonl", "index/embeddings.npy", "index/meta.json")


@pytest.fixture(scope="module")
def pins(fixtures_dir) -> dict:
    return json.loads((fixtures_dir / "golden" / "index_batches.json").read_text())


def vectors_digest(vectors) -> str:
    return hashlib.sha256(b"".join(v.tobytes() for v in vectors)).hexdigest()


def corpus_docs() -> dict[str, str]:
    """Three documents added to the tiny scenario's one. Their ~180 chunks
    span several batches and documents; the third repeats the first, so
    its chunks' texts are embedded once, into both documents' rows."""
    docs = {}
    for d in range(2):
        docs[f"extra_{d}.md"] = "".join(
            f"Paragraph {d}.{p}: kernel {p % 7} reads the device_global property "
            f"{p} of document {d} after the host writes it.\n\n"
            for p in range(420)
        )
    docs["extra_2.md"] = docs["extra_0.md"]
    return docs


def campaign_pins(campaign_dir) -> dict:
    """What the pin file records of one campaign directory."""
    with open(campaign_dir / "index" / "chunks.jsonl") as fh:
        texts = {json.loads(line)["text"] for line in fh}
    keys = {hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts}
    with open(campaign_dir / "embeddings.cache.jsonl") as fh:
        cached = [json.loads(line)["hash"] for line in fh]
    assert cached and not keys.intersection(cached)  # the cache holds no index text
    entries = CostLedger(campaign_dir / "ledger.jsonl").entries()
    stage_tokens: dict[str, list[int]] = {}
    for entry in entries:
        totals = stage_tokens.setdefault(entry.stage, [0, 0])
        totals[0] += entry.input_tokens
        totals[1] += entry.output_tokens
    return {
        **{
            name: hashlib.sha256((campaign_dir / name).read_bytes()).hexdigest()
            for name in INDEX_FILES
        },
        "index_texts": len(texts),
        "stage_tokens": dict(sorted(stage_tokens.items())),
        "embedding_entries": sum(e.stage == "embedding" for e in entries),
    }


def corpus_config(tmp_path):
    config_path = materialize_scenario(build_tiny(), tmp_path / "work")
    for name, text in corpus_docs().items():
        (config_path.parent / "inputs" / "docs" / name).write_text(text)
    return load_config_file(config_path)


def run_corpus_campaign(tmp_path) -> dict:
    campaign_dir = tmp_path / "campaign"
    run_campaign(corpus_config(tmp_path), campaign_dir, halt_after="repair_mutants")
    return campaign_pins(campaign_dir)


class Killed(BaseException):
    """Stands for a SIGKILL: no stage catches it."""


def kill_at_the_first_batch_line(monkeypatch, logged: bool) -> None:
    """Raise Killed once batch 1's rows are written: before its line in
    index/batches.jsonl, or after it."""
    append = RecordLog.append

    def killing(log, record):
        if log.path.name != "batches.jsonl":
            return append(log, record)
        if logged:
            append(log, record)
        raise Killed

    monkeypatch.setattr(RecordLog, "append", killing)


def batched_entries(want: dict) -> int:
    """The embedding entries of the pinned campaign: the per-text path
    wrote one per index text, the batched path one per batch."""
    batches = math.ceil(want["index_texts"] / EMBED_BATCH)
    return want["embedding_entries"] - want["index_texts"] + batches


def test_embed_texts_equals_the_per_text_vectors(pins):
    per_text = EmbeddingService(HashEmbedder(dim=16), CostLedger())
    singles = [per_text.embed_text(t) for t in TEXTS]
    batched = EmbeddingService(HashEmbedder(dim=16), CostLedger()).embed_texts(TEXTS)
    assert vectors_digest(singles) == vectors_digest(batched) == pins["vectors"]


def test_index_bytes_and_token_totals_match_the_per_text_campaign(tmp_path, pins):
    got = run_corpus_campaign(tmp_path)
    want = pins["campaign"]
    assert got["index_texts"] > 2 * EMBED_BATCH
    assert {k: v for k, v in got.items() if k != "embedding_entries"} == {
        k: v for k, v in want.items() if k != "embedding_entries"
    }
    assert got["embedding_entries"] == batched_entries(want)


@pytest.mark.parametrize("logged", [False, True], ids=["before_its_line", "after_its_line"])
def test_a_kill_between_index_batches_resumes_to_the_pinned_rows(
    tmp_path, monkeypatch, pins, logged
):
    config, campaign_dir = corpus_config(tmp_path), tmp_path / "campaign"
    kill_at_the_first_batch_line(monkeypatch, logged)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir, halt_after="repair_mutants")
    monkeypatch.undo()
    index_dir = campaign_dir / "index"
    assert len(RecordLog(index_dir / "batches.jsonl", IndexBatch).records) == int(logged)
    assert not (index_dir / "meta.json").exists()
    run_campaign(config, campaign_dir, halt_after="repair_mutants")
    got, want = campaign_pins(campaign_dir), pins["campaign"]

    def unbilled(pinned: dict) -> dict:
        """The pins but what re-embedding a batch bills again."""
        tokens = {k: v for k, v in pinned["stage_tokens"].items() if k != "embedding"}
        return {**pinned, "stage_tokens": tokens, "embedding_entries": None}

    # the index files, and the tokens of the prompts the resumed index's retrieves built
    assert unbilled(got) == unbilled(want)
    assert RecordLog(index_dir / "batches.jsonl", IndexBatch).records == [
        IndexBatch(EMBED_BATCH, ANY), IndexBatch(EMBED_BATCH, ANY), IndexBatch(9, ANY)
    ]
    entries = CostLedger(campaign_dir / "ledger.jsonl").entries()
    embedded = sum(e.stage == "embedding" for e in entries)
    # only the batch whose line the kill cut is embedded and billed again
    assert embedded == batched_entries(want) + (not logged)


def test_a_doc_edited_before_the_resume_rebuilds_the_index(tmp_path, monkeypatch):
    config, campaign_dir = corpus_config(tmp_path), tmp_path / "campaign"
    kill_at_the_first_batch_line(monkeypatch, logged=True)
    with pytest.raises(Killed):
        run_campaign(config, campaign_dir, halt_after="index")
    monkeypatch.undo()
    doc = config.base_dir / "inputs" / "docs" / "extra_0.md"
    text = doc.read_text()
    doc.write_text(text.replace("Paragraph 0.0:", "Paragraph 0.0;", 1))  # one chunk's text
    run_campaign(config, campaign_dir, halt_after="index")
    index_dir = campaign_dir / "index"
    with open(index_dir / "chunks.jsonl") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    assert any("Paragraph 0.0;" in t for t in texts)
    embedder = HashEmbedder(dim=config.rag.embedding_dim)
    rows = np.load(index_dir / "embeddings.npy")
    assert [row.tobytes() for row in rows] == [embedder.embed_text(t).tobytes() for t in texts]
