"""LLM-completion and text-embedding services.

One production HTTP backend speaks a chat-completion wire format; scripted
mocks make the whole pipeline runnable offline and bit-reproducible. Every
completed provider exchange appends exactly one cost-ledger entry. Retrieved
context is prepended to the prompt as plain delimited text so the wire
contract stays provider-agnostic.

Annotations here are evaluated at import, not postponed: the record codec
reads a scripted scenario's entry types as objects when a campaign sets up.
"""

import base64
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AuthFailure,
    ConfigError,
    OpenWorldKey,
    ProviderError,
    ProviderTimeout,
    ProviderUnavailable,
    TransportError,
)
from .ledger import CostLedger, read_jsonl
from .prompts import RenderedPrompt
from .rag import RetrievedChunk

CONTEXT_HEADER = "=== Retrieved context ==="
CONTEXT_FOOTER = "=== End of retrieved context ==="
CONTEXT_SEPARATOR = "\n---\n"
EMBED_BATCH = 64  # texts per embedding backend call, ledger entry and cache append


@dataclass(frozen=True)
class Completion:
    text: str
    input_tokens: int
    output_tokens: int
    model_id: str
    attempts: int = 1
    approximate_usage: bool = False


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    model_id: str = "gpt-4"
    api_key_env: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 0.5
    requests_per_minute: int = 0  # 0 = unlimited
    sampling: dict = field(default_factory=dict)

    def validate(self, path: str = "provider") -> None:
        """Raise ConfigError naming the first bad field under path."""
        if self.timeout <= 0:
            raise ConfigError(f"{path}.timeout", "must be > 0")
        if self.max_retries < 0:
            raise ConfigError(f"{path}.max_retries", "must be >= 0")


def approx_tokens(text: str) -> int:
    """ceil(chars/4): the fallback when a provider omits usage numbers."""
    return math.ceil(len(text) / 4)


def build_request_text(prompt: RenderedPrompt, context: list[RetrievedChunk]) -> str:
    if not context:
        return prompt.text
    body = CONTEXT_SEPARATOR.join(rc.chunk.text for rc in context)
    return f"{CONTEXT_HEADER}\n{body}\n{CONTEXT_FOOTER}\n\n{prompt.text}"


class RateLimiter:
    """Sliding-window limiter gating outbound production calls."""

    def __init__(self, requests_per_minute: int, clock=time.monotonic, sleep=time.sleep):
        self.limit = requests_per_minute
        self._clock = clock
        self._sleep = sleep
        self._window: list[float] = []
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.limit <= 0:
            return
        # one lock over check, wait and append: two threads must never both
        # see room in a full window
        with self._lock:
            now = self._clock()
            self._window = [t for t in self._window if now - t < 60.0]
            if len(self._window) >= self.limit:
                wait = 60.0 - (now - self._window[0])
                if wait > 0:
                    self._sleep(wait)
            self._window.append(self._clock())


# --------------------------------------------------------------------------
# LLM backends
# --------------------------------------------------------------------------

class HttpChatBackend:
    """Chat-completion HTTP backend. Secrets come from the named env var and
    are never persisted anywhere in campaign artifacts."""

    def __init__(self, config: ProviderConfig):
        config.validate()
        self.config = config
        self.model_id = config.model_id

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AuthFailure(f"environment variable {self.config.api_key_env!r} is unset")
        return key

    def complete(self, text: str) -> Completion:
        import requests

        payload = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": text}],
            **self.config.sampling,
        }
        try:
            resp = requests.post(
                self.config.endpoint,
                json=payload,
                headers={"Authorization": f"Bearer {self._api_key()}"},
                timeout=self.config.timeout,
            )
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc)) from exc
        except requests.ConnectionError as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"provider returned {resp.status_code}")
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransportError(f"provider returned {resp.status_code}")
        if resp.status_code != 200:
            raise ProviderError(f"provider returned {resp.status_code}: {resp.text[:200]}")
        data = resp.json()
        content = data["choices"][0]["message"]["content"]
        usage = data.get("usage") or {}
        if "prompt_tokens" in usage:
            return Completion(
                text=content,
                input_tokens=int(usage["prompt_tokens"]),
                output_tokens=int(usage.get("completion_tokens", 0)),
                model_id=self.config.model_id,
            )
        return Completion(
            text=content,
            input_tokens=approx_tokens(text),
            output_tokens=approx_tokens(content),
            model_id=self.config.model_id,
            approximate_usage=True,
        )


def binding_digest(value: str) -> str:
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


@dataclass
class ScriptEntry:
    """One canned LLM behavior: matchers over prompt bindings -> responses.

    Matcher values are exact strings, "sha256:<hex>" digests of the binding
    value, or "*". A ScriptedLLM hands the responses out in call order and
    repeats the last one; usages, when given, are (input, output) token
    counts paired with the responses the same way.
    """

    template_id: str
    match: dict[str, str]
    responses: list[str]
    usages: list[tuple[int, int]] | None = None

    def specificity(self) -> int:
        return sum(1 for v in self.match.values() if v != "*")

    def matches(self, bindings: dict[str, str]) -> bool:
        for name, expected in self.match.items():
            actual = bindings.get(name)
            if actual is None:
                return False
            if expected == "*":
                continue
            if expected.startswith("sha256:"):
                if binding_digest(actual) != expected[len("sha256:"):]:
                    return False
            elif actual != expected:
                return False
        return True


class ScriptedLLM:
    """Closed-world mock: an unmatched prompt is an error, never a guess."""

    model_id = "mock-llm"

    def __init__(self, entries: list[ScriptEntry]):
        self.entries = entries
        self._served = [0] * len(entries)  # responses handed out, per entry
        self._lock = threading.Lock()

    def complete_prompt(self, prompt: RenderedPrompt, wire_text: str) -> Completion:
        candidates = [
            i
            for i, e in enumerate(self.entries)
            if e.template_id == prompt.template_id and e.matches(prompt.bindings)
        ]
        if not candidates:
            raise OpenWorldKey(
                f"no scripted response for template {prompt.template_id!r} "
                f"with bindings {sorted(prompt.bindings)}"
            )
        best = max(candidates, key=lambda i: self.entries[i].specificity())
        entry = self.entries[best]
        with self._lock:
            served = self._served[best]
            self._served[best] += 1
        i = min(served, len(entry.responses) - 1)
        text = entry.responses[i]
        if not entry.usages:
            return Completion(
                text=text,
                input_tokens=approx_tokens(wire_text),
                output_tokens=approx_tokens(text),
                model_id=self.model_id,
                approximate_usage=True,
            )
        usage = entry.usages[min(i, len(entry.usages) - 1)]
        return Completion(
            text=text, input_tokens=usage[0], output_tokens=usage[1], model_id=self.model_id
        )


# --------------------------------------------------------------------------
# Services: retry + ledger + cache wiring
# --------------------------------------------------------------------------

class LLMService:
    """Retry/ledger wrapper over a completion backend.

    Transient transport failures are retried with exponential backoff up to
    max_retries; content-level provider responses are never retried.
    """

    def __init__(
        self,
        backend,
        ledger: CostLedger,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        rate_limiter: RateLimiter | None = None,
        sleep=time.sleep,
        on_exchange=None,
    ):
        self.backend = backend
        self.ledger = ledger
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.rate_limiter = rate_limiter
        self._sleep = sleep
        self._on_exchange = on_exchange

    def llm_complete(
        self,
        prompt: RenderedPrompt,
        context: list[RetrievedChunk],
        stage: str,
    ) -> Completion:
        wire_text = build_request_text(prompt, context)
        attempts = 0
        delay = self.backoff_base
        while True:
            attempts += 1
            if self.rate_limiter:
                self.rate_limiter.acquire()
            try:
                if hasattr(self.backend, "complete_prompt"):
                    completion = self.backend.complete_prompt(prompt, wire_text)
                else:
                    completion = self.backend.complete(wire_text)
                break
            except TransportError as exc:
                if attempts >= self.max_retries + 1:
                    raise ProviderUnavailable(
                        f"gave up after {attempts} attempts: {exc}"
                    ) from exc
                self._sleep(delay)
                delay *= 2
        self.ledger.record(
            stage=stage,
            model_id=completion.model_id,
            input_tokens=completion.input_tokens,
            output_tokens=completion.output_tokens,
            approximate=completion.approximate_usage,
        )
        final = Completion(
            text=completion.text,
            input_tokens=completion.input_tokens,
            output_tokens=completion.output_tokens,
            model_id=completion.model_id,
            attempts=attempts,
            approximate_usage=completion.approximate_usage,
        )
        if self._on_exchange is not None:
            self._on_exchange(prompt, final)
        return final


class HttpEmbeddingBackend:
    """HTTP embedding endpoint speaking the common embeddings wire format."""

    def __init__(self, config: ProviderConfig, dim: int):
        config.validate()
        self.config = config
        self.model_id = config.model_id
        self.dim = dim

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """One POST whose ``input`` is the list; each returned item lands in
        the row of the ``(len(texts), dim)`` matrix its ``index`` names."""
        import requests

        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AuthFailure(f"environment variable {self.config.api_key_env!r} is unset")
        try:
            resp = requests.post(
                self.config.endpoint,
                json={"model": self.config.model_id, "input": texts},
                headers={"Authorization": f"Bearer {key}"},
                timeout=self.config.timeout,
            )
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc)) from exc
        except requests.ConnectionError as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"provider returned {resp.status_code}")
        if resp.status_code != 200:
            raise ProviderError(f"provider returned {resp.status_code}")
        items = resp.json()["data"]
        if len(items) != len(texts):
            raise ProviderError(f"{len(items)} embeddings returned for {len(texts)} inputs")
        matrix = np.empty((len(texts), self.dim))
        placed = set()
        for item in items:
            vector = np.asarray(item["embedding"], dtype=np.float64)
            if vector.shape != (self.dim,):
                raise ProviderError(
                    f"embedding shape {vector.shape} does not match configured dim {self.dim}"
                )
            i = item["index"]
            if not (isinstance(i, int) and 0 <= i < len(texts)) or i in placed:
                raise ProviderError(f"embedding index {i!r} is out of range or repeated")
            placed.add(i)
            matrix[i] = vector
        return matrix


class HashEmbedder:
    """Deterministic mock embedding backend: a seeded hash-derived unit vector.

    Identical input always embeds to the identical vector, across processes,
    so mock campaigns are bit-reproducible.
    """

    model_id = "mock-embedder"

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim <= 0:
            raise ValueError("dim must be > 0")
        self.dim = dim
        self.seed = seed

    def embed_text(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}|{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vec = rng.standard_normal(self.dim)
        return vec / np.linalg.norm(vec)

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """The ``(len(texts), dim)`` matrix of ``embed_text`` of each text."""
        matrix = np.empty((len(texts), self.dim))
        for row, text in zip(matrix, texts):
            row[:] = self.embed_text(text)
        return matrix


def _encode_cache_line(key: str, vector: np.ndarray) -> str:
    # hex and base64 need no JSON escaping: the bytes json.dumps would write
    f64 = base64.b64encode(np.asarray(vector, dtype="<f8").tobytes()).decode("ascii")
    return f'{{"hash": "{key}", "f64": "{f64}"}}\n'


def _decode_cache_line(line: bytes) -> tuple[str, np.ndarray]:
    rec = json.loads(line)
    if "f64" in rec:
        raw = base64.b64decode(rec["f64"], validate=True)
        vector = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:  # the JSON-list format of earlier campaign directories
        vector = np.asarray(rec["vector"], dtype=np.float64)
    return rec["hash"], vector


class EmbeddingService:
    """Content-hash cache plus ledger accounting around an embedding backend.

    ``embed_texts`` returns one C-contiguous ``(len(texts), dim)`` float64
    matrix. The misses of one call are embedded in order of first
    appearance, in batches of up to EMBED_BATCH texts. Each batch is one
    backend call, one ledger entry billing the batch's tokens, then one
    cache append, and writes its vectors straight into their rows of the
    matrix. The in-memory cache keeps views of those rows, so a vector
    exists once: a caller that keeps the matrix (the RAG index does) holds
    the cache's vectors too. Cache hits, repeated texts and keys another
    caller embedded are copied into their rows. A cache hit performs no
    provider call and records no tokens. ``embed_text`` returns the cached
    vector itself; the row views are read-only.

    The cache file holds one JSON line per text, ``{"hash": <sha256 of the
    text>, "f64": <base64 of the little-endian float64 bytes>}``, which
    round-trips exactly; lines of the older ``{"hash", "vector": [...]}``
    format still load. A final line torn by a kill mid-append is dropped
    from the file.

    The lock is not held across the backend call. Under it a caller claims
    the keys it will embed; a caller that needs a key another thread has
    claimed waits for it instead, so concurrent callers embed and bill each
    text once, and batches of different texts overlap.
    """

    def __init__(self, backend, ledger: CostLedger, cache_path: Path | None = None):
        self.backend = backend
        self.ledger = ledger
        self.dim = backend.dim
        self._cache: dict[str, np.ndarray] = {}
        # key -> the Event of the batch embedding it, set once it is cached or given up
        self._claimed: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._cache_path = Path(cache_path) if cache_path else None
        if self._cache_path and self._cache_path.exists():
            self._cache = dict(read_jsonl(self._cache_path, _decode_cache_line))

    def embed_text(self, text: str) -> np.ndarray:
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        vector = self._cache.get(key)
        if vector is None:
            self.embed_texts([text])
            vector = self._cache[key]
        return vector

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        if not all(texts):
            raise ValueError("cannot embed empty text")
        keys = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]
        out = np.empty((len(keys), self.dim))
        first: dict[str, int] = {}  # key -> its first row in out
        for row, key in enumerate(keys):
            first.setdefault(key, row)
        cache = self._cache
        embedded: set[str] = set()  # keys whose first row a batch of this call wrote
        # a key whose claimant failed is claimed again on the next pass
        while missing := {k: texts[row] for k, row in first.items() if k not in cache}:
            batches, waits = self._claim(missing)
            try:
                for batch in batches:
                    self._embed_batch(batch, out, first)
                    embedded.update(key for key, _ in batch)
            finally:
                self._release(batches)
            for claim in waits:
                claim.wait()
        for row, key in enumerate(keys):
            if row != first[key] or key not in embedded:
                out[row] = cache[key]
        return out

    def _claim(self, missing: dict[str, str]):
        """Claim the keys no other caller has claimed, in batches of up to
        EMBED_BATCH under one Event each. Returns the batches and the Events
        of the keys other callers hold."""
        with self._lock:
            mine: list[tuple[str, str]] = []
            waits: set[threading.Event] = set()
            for key, text in missing.items():
                claim = self._claimed.get(key)
                if claim is not None:
                    waits.add(claim)
                elif key not in self._cache:
                    mine.append((key, text))
            batches = [mine[i : i + EMBED_BATCH] for i in range(0, len(mine), EMBED_BATCH)]
            for batch in batches:
                claim = threading.Event()
                for key, _ in batch:
                    self._claimed[key] = claim
        return batches, waits

    def _embed_batch(
        self, batch: list[tuple[str, str]], out: np.ndarray, first: dict[str, int]
    ) -> None:
        """Embed one batch into its rows of out (``first[key]``) and cache
        those rows."""
        vectors = np.asarray(self.backend.embed_texts([text for _, text in batch]))
        if vectors.shape != (len(batch), self.dim):
            raise ProviderError(
                f"embeddings of shape {vectors.shape} returned for {len(batch)} inputs "
                f"of dim {self.dim}"
            )
        rows = [first[key] for key, _ in batch]
        out[rows] = vectors
        self.ledger.record(
            stage="embedding",
            model_id=self.backend.model_id,
            input_tokens=sum(approx_tokens(text) for _, text in batch),
            output_tokens=0,
            approximate=True,
        )
        with self._lock:
            if self._cache_path:
                with open(self._cache_path, "a", encoding="utf-8") as fh:
                    fh.writelines(
                        _encode_cache_line(key, out[row]) for (key, _), row in zip(batch, rows)
                    )
            for (key, _), row in zip(batch, rows):
                vector = out[row]
                vector.flags.writeable = False  # a write would reach the caller's matrix
                self._cache[key] = vector
                claim = self._claimed.pop(key)
        claim.set()

    def _release(self, batches: list[list[tuple[str, str]]]) -> None:
        """Drop the claims a failed batch left open, waking their waiters."""
        with self._lock:
            for batch in batches:
                for key, _ in batch:
                    claim = self._claimed.pop(key, None)
                    if claim is not None:
                        claim.set()
