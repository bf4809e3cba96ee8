"""Batched embedding against the per-text path it replaced.

fixtures/golden/index_batches.json was written by the per-text code, which
made one backend call, one ledger entry and one cache append per text. The
batched path must embed the same vectors and write the same index and cache
bytes in the same order. Only the number of embedding ledger entries may
change: the index stage now writes one per batch of up to EMBED_BATCH texts.
"""
from __future__ import annotations

import hashlib
import json
import math

import pytest

from ragfuzz.campaign import load_config_file, run_campaign
from ragfuzz.ledger import CostLedger
from ragfuzz.providers import EMBED_BATCH, EmbeddingService, HashEmbedder
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
    its chunks are all cache hits."""
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
        index_texts = len({json.loads(line)["text"] for line in fh})
    cache_lines = (campaign_dir / "embeddings.cache.jsonl").read_bytes().splitlines(keepends=True)
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
        "index_texts": index_texts,
        "index_cache_lines": hashlib.sha256(b"".join(cache_lines[:index_texts])).hexdigest(),
        "stage_tokens": dict(sorted(stage_tokens.items())),
        "embedding_entries": sum(e.stage == "embedding" for e in entries),
    }


def run_corpus_campaign(tmp_path) -> dict:
    config_path = materialize_scenario(build_tiny(), tmp_path / "work")
    for name, text in corpus_docs().items():
        (config_path.parent / "inputs" / "docs" / name).write_text(text)
    campaign_dir = tmp_path / "campaign"
    run_campaign(load_config_file(config_path), campaign_dir, halt_after="repair_mutants")
    return campaign_pins(campaign_dir)


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
    # the per-text path wrote one entry per index text; now one per batch
    index_texts = want["index_texts"]
    assert got["embedding_entries"] == (
        want["embedding_entries"] - index_texts + math.ceil(index_texts / EMBED_BATCH)
    )
