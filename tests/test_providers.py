from __future__ import annotations

import base64
import hashlib
import json
import random
import sys
import threading
import time

import numpy as np
import pytest
from helpers import FlakyBackend

from ragfuzz.errors import OpenWorldKey, ProviderUnavailable
from ragfuzz.ledger import CostLedger
from ragfuzz.prompts import RenderedPrompt
from ragfuzz.providers import (
    EmbeddingService,
    HashEmbedder,
    LLMService,
    RateLimiter,
    ScriptEntry,
    ScriptedLLM,
    approx_tokens,
    binding_digest,
    build_request_text,
)
from ragfuzz.rag import Chunk, RetrievedChunk
from ragfuzz.records import to_record


def prompt(template_id="codegen", **bindings) -> RenderedPrompt:
    bindings = bindings or {"pass_name": "P", "reqs": "R"}
    return RenderedPrompt(template_id=template_id, text="PROMPT BODY", bindings=bindings)


def ctx(*texts: str) -> list[RetrievedChunk]:
    return [
        RetrievedChunk(chunk=Chunk(f"d#{i}", "d", t, i), distance=0.1)
        for i, t in enumerate(texts)
    ]


def test_scripted_mock_passthrough():
    llm = ScriptedLLM(
        [ScriptEntry("codegen", {"pass_name": "P"}, ["RESPONSE"], usages=[(11, 7)])]
    )
    ledger = CostLedger()
    service = LLMService(llm, ledger, sleep=lambda s: None)
    completion = service.llm_complete(prompt(), [], stage="codegen")
    assert completion.text == "RESPONSE"
    assert (completion.input_tokens, completion.output_tokens) == (11, 7)
    assert len(ledger) == 1
    assert ledger.entries()[0].stage == "codegen"


def test_scripted_mock_closed_world():
    llm = ScriptedLLM([ScriptEntry("repair", {"code": "*"}, ["x"])])
    service = LLMService(llm, CostLedger(), sleep=lambda s: None)
    with pytest.raises(OpenWorldKey):
        service.llm_complete(prompt(), [], stage="codegen")


def test_scripted_mock_specificity_and_sequences():
    llm = ScriptedLLM(
        [
            ScriptEntry("codegen", {"pass_name": "*"}, ["generic"]),
            ScriptEntry("codegen", {"pass_name": "P", "reqs": "R"}, ["first", "second"]),
        ]
    )
    service = LLMService(llm, CostLedger(), sleep=lambda s: None)
    assert service.llm_complete(prompt(), [], "codegen").text == "first"
    assert service.llm_complete(prompt(), [], "codegen").text == "second"
    assert service.llm_complete(prompt(), [], "codegen").text == "second"  # last repeats
    other = prompt(pass_name="Q", reqs="R2")
    assert service.llm_complete(other, [], "codegen").text == "generic"


def test_each_scripted_llm_hands_out_responses_from_the_first():
    # the call-order cursor lives in the ScriptedLLM, not in the shared entries
    entries = [ScriptEntry("codegen", {"pass_name": "P"}, ["one", "two"], [(1, 1), (2, 2)])]
    for _ in range(2):
        service = LLMService(ScriptedLLM(entries), CostLedger(), sleep=lambda s: None)
        got = [service.llm_complete(prompt(), [], "codegen") for _ in range(3)]
        assert [c.text for c in got] == ["one", "two", "two"]
        assert [c.input_tokens for c in got] == [1, 2, 2]
    assert to_record(entries[0]) == {
        "template_id": "codegen", "match": {"pass_name": "P"},
        "responses": ["one", "two"], "usages": [[1, 1], [2, 2]],
    }


def test_digest_matcher():
    code = "int main() { return 0; }"
    llm = ScriptedLLM(
        [ScriptEntry("repair", {"code": f"sha256:{binding_digest(code)}"}, ["fixed"])]
    )
    service = LLMService(llm, CostLedger(), sleep=lambda s: None)
    got = service.llm_complete(prompt("repair", code=code, error="E"), [], "repair")
    assert got.text == "fixed"


def test_retry_twice_then_success_counts_three_attempts():
    backend = FlakyBackend(failures=2, response="done")
    service = LLMService(backend, CostLedger(), max_retries=3, sleep=lambda s: None)
    completion = service.llm_complete(prompt(), [], stage="codegen")
    assert completion.text == "done"
    assert completion.attempts == 3
    assert backend.calls == 3


def test_retries_exhausted_raise_provider_unavailable():
    backend = FlakyBackend(failures=10)
    ledger = CostLedger()
    service = LLMService(backend, ledger, max_retries=2, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable):
        service.llm_complete(prompt(), [], stage="codegen")
    assert backend.calls == 3  # 1 try + 2 retries
    assert len(ledger) == 0  # failed transport calls bill nothing


def test_context_prepended_with_delimiters():
    wire = build_request_text(prompt(), ctx("chunk one", "chunk two"))
    assert wire.index("chunk one") < wire.index("chunk two") < wire.index("PROMPT BODY")
    assert "=== Retrieved context ===" in wire
    assert build_request_text(prompt(), []) == "PROMPT BODY"


def test_hash_embedder_determinism_and_separation():
    embedder = HashEmbedder(dim=64, seed=1)
    a1 = embedder.embed_text("hello world")
    a2 = embedder.embed_text("hello world")
    b = embedder.embed_text("something else")
    assert np.array_equal(a1, a2)
    assert np.linalg.norm(a1) == pytest.approx(1.0, abs=1e-12)
    from ragfuzz.rag import cosine_distance

    assert cosine_distance(a1, b) > 0


def test_embedding_cache_hits_record_no_tokens():
    ledger = CostLedger()
    service = EmbeddingService(HashEmbedder(dim=32), ledger)
    service.embed_text("alpha")
    before = ledger.total_tokens()
    service.embed_text("alpha")  # cache hit
    assert ledger.total_tokens() == before
    assert len(ledger) == 1


def test_embedding_cache_persists(tmp_path):
    cache = tmp_path / "emb.jsonl"
    ledger1 = CostLedger()
    s1 = EmbeddingService(HashEmbedder(dim=16), ledger1, cache_path=cache)
    v1 = s1.embed_text("persist me")
    ledger2 = CostLedger()
    s2 = EmbeddingService(HashEmbedder(dim=16), ledger2, cache_path=cache)
    v2 = s2.embed_text("persist me")
    assert np.allclose(v1, v2)
    assert len(ledger2) == 0  # served from disk cache


class CountingEmbedder(HashEmbedder):
    """Counts the texts it embeds and the most embeddings in flight at once."""

    def __init__(self, dim: int = 16, delay: float = 0.0):
        super().__init__(dim=dim)
        self.calls = 0
        self.delay = delay
        self.texts: list[str] = []
        self.in_flight = self.max_in_flight = 0
        self._lock = threading.Lock()

    def embed_text(self, text: str) -> np.ndarray:
        with self._lock:
            self.calls += 1
            self.texts.append(text)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay)
        with self._lock:
            self.in_flight -= 1
        return super().embed_text(text)


def test_embedding_cache_line_is_exact_binary(tmp_path):
    cache = tmp_path / "emb.jsonl"
    v1 = EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache).embed_text("x")
    rec = json.loads(cache.read_text())
    assert set(rec) == {"hash", "f64"}
    assert rec["hash"] == hashlib.sha256(b"x").hexdigest()
    assert base64.b64decode(rec["f64"]) == v1.astype("<f8").tobytes()
    v2 = EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache).embed_text("x")
    assert v2.tobytes() == v1.tobytes()


def test_embedding_cache_reads_list_format_lines(tmp_path):
    cache = tmp_path / "emb.jsonl"
    old = HashEmbedder(dim=16).embed_text("from an older campaign")
    key = hashlib.sha256(b"from an older campaign").hexdigest()
    cache.write_text(json.dumps({"hash": key, "vector": old.tolist()}) + "\n")
    backend = CountingEmbedder()
    ledger = CostLedger()
    service = EmbeddingService(backend, ledger, cache_path=cache)
    assert np.array_equal(service.embed_text("from an older campaign"), old)
    assert backend.calls == 0 and len(ledger) == 0
    service.embed_text("new text")  # appended in the binary format after the old line
    reloaded = EmbeddingService(CountingEmbedder(), CostLedger(), cache_path=cache)
    assert reloaded.embed_text("from an older campaign").tobytes() == old.tobytes()
    assert [set(json.loads(line)) for line in cache.read_text().splitlines()] == [
        {"hash", "vector"}, {"hash", "f64"},
    ]


def test_torn_final_cache_line_is_dropped(tmp_path):
    cache = tmp_path / "emb.jsonl"
    s1 = EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache)
    for text in ("one", "two", "three"):
        s1.embed_text(text)
    whole = cache.read_bytes()
    cache.write_bytes(whole[:-40])  # a kill tore the last append
    backend = CountingEmbedder()
    ledger = CostLedger()
    s2 = EmbeddingService(backend, ledger, cache_path=cache)
    s2.embed_text("one")
    s2.embed_text("two")
    assert backend.calls == 0
    assert np.array_equal(s2.embed_text("three"), s1.embed_text("three"))
    assert backend.calls == 1 and len(ledger) == 1
    assert cache.read_bytes() == whole  # the torn tail was cut before the re-append
    s3 = EmbeddingService(CountingEmbedder(), CostLedger(), cache_path=cache)
    assert len(s3._cache) == 3


def test_final_cache_line_without_newline_is_kept(tmp_path):
    cache = tmp_path / "emb.jsonl"
    EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache).embed_text("one")
    cache.write_bytes(cache.read_bytes().rstrip(b"\n"))
    backend = CountingEmbedder()
    service = EmbeddingService(backend, CostLedger(), cache_path=cache)
    service.embed_text("one")
    service.embed_text("two")
    assert backend.calls == 1
    assert len(EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache)._cache) == 2


def test_corrupt_inner_cache_line_still_raises(tmp_path):
    cache = tmp_path / "emb.jsonl"
    s1 = EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache)
    s1.embed_text("one")
    s1.embed_text("two")
    first, second = cache.read_text().splitlines(keepends=True)
    cache.write_text(first[:20] + "\n" + second)
    with pytest.raises(ValueError):
        EmbeddingService(HashEmbedder(dim=16), CostLedger(), cache_path=cache)


def test_concurrent_misses_embed_and_bill_once(tmp_path):
    cache = tmp_path / "emb.jsonl"
    backend = CountingEmbedder(delay=0.05)
    ledger = CostLedger()
    service = EmbeddingService(backend, ledger, cache_path=cache)
    barrier = threading.Barrier(8)
    results = []

    def worker():
        barrier.wait()
        results.append(service.embed_text("same text"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r is results[0] for r in results)
    assert backend.calls == 1
    assert [e.stage for e in ledger.entries()] == ["embedding"]
    assert len(cache.read_text().splitlines()) == 1


def test_overlapping_concurrent_batches_embed_and_bill_each_text_once(tmp_path):
    cache = tmp_path / "emb.jsonl"
    backend = CountingEmbedder(delay=0.02)
    ledger = CostLedger()
    service = EmbeddingService(backend, ledger, cache_path=cache)
    shared = [f"shared text {i}" for i in range(4)]
    lists = [shared + [f"text {n}.{i}" for i in range(6)] for n in range(2)]
    barrier = threading.Barrier(2)
    results: list = [None, None]

    def worker(n):
        barrier.wait()
        results[n] = service.embed_texts(lists[n])

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    distinct = set(lists[0] + lists[1])
    assert sorted(backend.texts) == sorted(distinct)  # each text embedded once
    assert sum(e.input_tokens for e in ledger.entries()) == sum(map(approx_tokens, distinct))
    assert len(cache.read_text().splitlines()) == len(distinct)
    # the second caller's own texts embed while the first caller's batch runs
    assert backend.max_in_flight == 2
    per_text = EmbeddingService(HashEmbedder(dim=16), CostLedger())
    for texts, vectors in zip(lists, results):
        assert [v.tobytes() for v in vectors] == [
            per_text.embed_text(t).tobytes() for t in texts
        ]


def test_rate_limiter_waits_when_window_full():
    now = [0.0]
    slept = []

    limiter = RateLimiter(2, clock=lambda: now[0], sleep=lambda s: slept.append(s))
    limiter.acquire()
    limiter.acquire()
    limiter.acquire()  # third call within the same minute must wait
    assert slept and slept[0] == pytest.approx(60.0)


def test_rate_limiter_admits_one_of_two_concurrent_calls():
    """Each clock read waits (up to 0.5 s) for the other caller's read, so
    without a lock both callers check the window before either appends."""
    rendezvous = threading.Barrier(2, timeout=0.5)
    slept = []

    def clock():
        try:
            rendezvous.wait()
        except threading.BrokenBarrierError:  # the other caller is held off
            pass
        return 0.0

    limiter = RateLimiter(1, clock=clock, sleep=slept.append)
    threads = [threading.Thread(target=limiter.acquire) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert slept == [pytest.approx(60.0)]


def test_approx_tokens():
    assert approx_tokens("") == 0
    assert approx_tokens("abcd") == 1
    assert approx_tokens("abcde") == 2


# --- HTTP backend (requests monkeypatched; no sockets) ---

class FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = str(payload)

    def json(self):
        return self._payload


def http_backend(monkeypatch, response: FakeResponse):
    from ragfuzz.providers import HttpChatBackend, ProviderConfig

    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("requests.post", lambda *a, **kw: response)
    return HttpChatBackend(
        ProviderConfig(endpoint="https://example.invalid/v1", api_key_env="TEST_API_KEY")
    )


def test_http_backend_missing_key_is_auth_failure(monkeypatch):
    from ragfuzz.errors import AuthFailure
    from ragfuzz.providers import HttpChatBackend, ProviderConfig

    monkeypatch.delenv("NO_SUCH_KEY", raising=False)
    backend = HttpChatBackend(
        ProviderConfig(endpoint="https://example.invalid", api_key_env="NO_SUCH_KEY")
    )
    with pytest.raises(AuthFailure):
        backend.complete("hello")


def test_http_backend_401_is_auth_failure(monkeypatch):
    from ragfuzz.errors import AuthFailure

    with pytest.raises(AuthFailure):
        http_backend(monkeypatch, FakeResponse(401)).complete("x")


def test_http_backend_5xx_is_transport_error(monkeypatch):
    from ragfuzz.errors import TransportError

    with pytest.raises(TransportError):
        http_backend(monkeypatch, FakeResponse(503)).complete("x")


def test_http_backend_4xx_content_error_not_retried(monkeypatch):
    from ragfuzz.errors import ProviderError, TransportError

    with pytest.raises(ProviderError) as exc:
        http_backend(monkeypatch, FakeResponse(422, {"error": "bad"})).complete("x")
    assert not isinstance(exc.value, TransportError)


def test_http_backend_parses_usage(monkeypatch):
    payload = {
        "choices": [{"message": {"content": "hi"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 3},
    }
    completion = http_backend(monkeypatch, FakeResponse(200, payload)).complete("x")
    assert completion.text == "hi"
    assert (completion.input_tokens, completion.output_tokens) == (12, 3)
    assert not completion.approximate_usage


def test_http_backend_approximates_missing_usage(monkeypatch):
    payload = {"choices": [{"message": {"content": "words here"}}]}
    completion = http_backend(monkeypatch, FakeResponse(200, payload)).complete("abcdefgh")
    assert completion.approximate_usage
    assert completion.input_tokens == 2  # ceil(8 / 4)


def _embedding_stub(monkeypatch, reply):
    """requests.post stand-in: records each JSON body, answers reply(texts)."""
    from ragfuzz.providers import HttpEmbeddingBackend, ProviderConfig

    posts = []

    def post(url, json, headers, timeout):
        posts.append(json)
        return FakeResponse(200, {"data": reply(json["input"])})

    monkeypatch.setenv("TEST_API_KEY", "k")
    monkeypatch.setattr("requests.post", post)
    backend = HttpEmbeddingBackend(
        ProviderConfig(endpoint="https://example.invalid/v1", api_key_env="TEST_API_KEY"), dim=3
    )
    return backend, posts


def _numbered_items(texts, dim=3):
    """One item per text whose first component is the text's number."""
    items = [
        {"index": i, "embedding": [float(t.split()[-1])] + [1.0] * (dim - 1)}
        for i, t in enumerate(texts)
    ]
    random.Random(len(texts)).shuffle(items)  # the stub answers out of order
    return items


def test_http_embeddings_post_batches_and_place_vectors_by_index(monkeypatch):
    backend, posts = _embedding_stub(monkeypatch, _numbered_items)
    ledger = CostLedger()
    texts = [f"text {i}" for i in range(130)]
    vectors = EmbeddingService(backend, ledger).embed_texts(texts)
    assert [len(body["input"]) for body in posts] == [64, 64, 2]
    assert all(isinstance(body["input"], list) for body in posts)
    assert [text for body in posts for text in body["input"]] == texts
    assert [v[0] for v in vectors] == list(range(130))
    assert [e.input_tokens for e in ledger.entries()] == [
        sum(map(approx_tokens, body["input"])) for body in posts
    ]


@pytest.mark.parametrize(
    "reply",
    [lambda texts: _numbered_items(texts)[1:], lambda texts: _numbered_items(texts, dim=2)],
    ids=["wrong_count", "wrong_dim"],
)
def test_http_embeddings_reject_a_malformed_reply(monkeypatch, reply):
    from ragfuzz.errors import ProviderError

    backend, _ = _embedding_stub(monkeypatch, reply)
    ledger = CostLedger()
    with pytest.raises(ProviderError):
        EmbeddingService(backend, ledger).embed_texts(["text 0", "text 1"])
    assert len(ledger) == 0
