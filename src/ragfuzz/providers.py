"""LLM-completion and text-embedding services.

One production HTTP backend speaks a chat-completion wire format; scripted
mocks make the whole pipeline runnable offline and bit-reproducible. Every
completed provider exchange appends exactly one cost-ledger entry, which for
an LLM call also holds its prompt's digest and the response. Retrieved
context is prepended to the prompt as plain delimited text so the wire
contract stays provider-agnostic.

Annotations here are evaluated at import, not postponed: the record codec
reads a scripted scenario's entry types as objects when a campaign sets up.
"""

import base64
import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AuthFailure,
    OpenWorldKey,
    ProviderError,
    ProviderTimeout,
    ProviderUnavailable,
    RecordError,
    TransportError,
)
from .ledger import CostLedger, RecordLog
from .prompts import RenderedPrompt
from .rag import RetrievedChunk

CONTEXT_HEADER = "=== Retrieved context ==="
CONTEXT_FOOTER = "=== End of retrieved context ==="
CONTEXT_SEPARATOR = "\n---\n"


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

    def __post_init__(self):
        if not self.timeout > 0:  # NaN fails too
            raise RecordError("timeout", "must be > 0")
        if self.max_retries < 0:
            raise RecordError("max_retries", "must be >= 0")


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

def _post(config: ProviderConfig, payload: dict):
    """POST payload to the configured endpoint with the bearer key read from
    the named env var. Returns the 200 response; a timeout, a connection
    failure, 429 or 5xx raises a retryable TransportError, 401/403
    AuthFailure, any other status ProviderError."""
    import requests

    key = os.environ.get(config.api_key_env, "")
    if not key:
        raise AuthFailure(f"environment variable {config.api_key_env!r} is unset")
    try:
        resp = requests.post(
            config.endpoint,
            json=payload,
            headers={"Authorization": f"Bearer {key}"},
            timeout=config.timeout,
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
    return resp


class HttpChatBackend:
    """Chat-completion HTTP backend. Secrets come from the named env var and
    are never persisted anywhere in campaign artifacts."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.model_id = config.model_id

    def complete(self, prompt: RenderedPrompt, text: str) -> Completion:
        """Send text, the wire form of prompt, as one user message."""
        payload = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": text}],
            **self.config.sampling,
        }
        data = _post(self.config, payload).json()
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

    def complete(self, prompt: RenderedPrompt, wire_text: str) -> Completion:
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

class _ProviderService:
    """A backend, the ledger its calls are billed to, and the retry rule
    every call to the backend goes through (``_call``).

    A transient transport failure (TransportError) is retried after
    backoff_base seconds, each further wait twice the last, up to
    max_retries times; content-level provider responses are never retried.
    With a rate limiter, each attempt first waits for its turn.
    """

    def __init__(
        self,
        backend,
        ledger: CostLedger,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        rate_limiter: RateLimiter | None = None,
        sleep=time.sleep,
    ):
        self.backend = backend
        self.ledger = ledger
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.rate_limiter = rate_limiter
        self._sleep = sleep

    def _call(self, call, *args) -> tuple:
        """call(*args)'s result and the attempts it took; ProviderUnavailable
        once the retries are spent."""
        attempts, delay = 0, self.backoff_base
        while True:
            attempts += 1
            if self.rate_limiter:
                self.rate_limiter.acquire()
            try:
                return call(*args), attempts
            except TransportError as exc:
                if attempts > self.max_retries:
                    raise ProviderUnavailable(f"gave up after {attempts} attempts: {exc}") from exc
                self._sleep(delay)
                delay *= 2


class LLMService(_ProviderService):
    """Retry/ledger wrapper over a completion backend, whose
    ``complete(prompt, wire_text)`` returns one Completion. The ledger entry
    of a call keeps its prompt by template and sha256, and the response."""

    def llm_complete(
        self, prompt: RenderedPrompt, context: list[RetrievedChunk], stage: str
    ) -> Completion:
        wire_text = build_request_text(prompt, context)
        completion, attempts = self._call(self.backend.complete, prompt, wire_text)
        self.ledger.record(
            stage=stage,
            model_id=completion.model_id,
            input_tokens=completion.input_tokens,
            output_tokens=completion.output_tokens,
            approximate=completion.approximate_usage,
            template_id=prompt.template_id,
            prompt_sha256=binding_digest(prompt.text),
            response=completion.text,
        )
        return replace(completion, attempts=attempts)


class HttpEmbeddingBackend:
    """HTTP embedding endpoint speaking the common embeddings wire format."""

    def __init__(self, config: ProviderConfig, dim: int):
        self.config = config
        self.model_id = config.model_id
        self.dim = dim

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """One POST whose ``input`` is the list; each returned item lands in
        the row of the ``(len(texts), dim)`` matrix its ``index`` names."""
        items = _post(self.config, {"model": self.config.model_id, "input": texts}).json()["data"]
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
        """The ``(len(texts), dim)`` matrix whose row i is ``embed_text`` of text i."""
        out = np.empty((len(texts), self.dim))
        for row, text in enumerate(texts):
            out[row] = self.embed_text(text)
        return out


@dataclass(frozen=True)
class CachedEmbedding:
    """One line of the embedding cache: the sha256 of a text, and its vector
    as the base64 of its little-endian float64 bytes, which round-trips
    exactly. Lines of an older format hold the vector as a JSON list."""

    hash: str
    f64: str = ""
    vector: list[float] | None = None

    def decode(self) -> np.ndarray:
        """The vector, read-only: the cache hands one array to every caller."""
        if self.vector is not None:
            vector = np.array(self.vector, dtype=np.float64)
        else:
            vector = np.frombuffer(base64.b64decode(self.f64, validate=True), "<f8").astype(float)
        vector.setflags(write=False)
        return vector


class EmbeddingService(_ProviderService):
    """Ledger accounting and retries around an embedding backend, and a
    content-hash cache of the texts embedded one at a time.

    ``embed_texts`` makes one backend call and records one ledger entry
    billing its texts' tokens; it caches nothing, since the index keeps the
    vectors of its batches itself. ``embed_text`` serves the cache, which
    is held in memory as vectors; a hit performs no provider call and
    records no tokens. With a cache path, each miss is appended through a
    RecordLog as ``{"f64", "hash"}`` (the bytes of a CachedEmbedding without
    its null field), and the lines of an earlier run, older ones included,
    are decoded into the cache when the service is made.

    The lock is not held across the backend call. Under it a caller claims
    the text it will embed; a caller that needs a text another thread has
    claimed waits for it instead, so concurrent callers embed and bill each
    text once, and different texts embed at once.
    """

    def __init__(self, backend, ledger: CostLedger, cache_path: Path | None = None, **retry):
        super().__init__(backend, ledger, **retry)
        self.dim = backend.dim
        self._log = RecordLog(cache_path, CachedEmbedding) if cache_path else None
        self._cache: dict[str, np.ndarray] = {}
        if self._log is not None:
            self._cache = {line.hash: line.decode() for line in self._log.records}
            self._log.records.clear()
        # key -> the Event of the caller embedding it, set once it is cached or given up
        self._claimed: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def embed_text(self, text: str) -> np.ndarray:
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        while True:
            with self._lock:
                if key in self._cache:
                    return self._cache[key]
                claim = self._claimed.get(key)
                if claim is None:
                    claim = self._claimed[key] = threading.Event()
                    break
            claim.wait()
        try:
            vector = self.embed_texts([text])[0]
            vector.setflags(write=False)  # as a decoded line is
            if self._log is not None:
                f64 = base64.b64encode(vector.astype("<f8").tobytes()).decode("ascii")
                self._log.append({"f64": f64, "hash": key})
            with self._lock:
                self._cache[key] = vector
        finally:
            with self._lock:
                del self._claimed[key]
            claim.set()
        return vector

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """The ``(len(texts), dim)`` float64 matrix of the texts' vectors,
        from one answered backend call billed as one ledger entry."""
        if not all(texts):
            raise ValueError("cannot embed empty text")
        vectors = np.asarray(self._call(self.backend.embed_texts, texts)[0], dtype=np.float64)
        if vectors.shape != (len(texts), self.dim):
            raise ProviderError(
                f"embeddings of shape {vectors.shape} returned for {len(texts)} inputs "
                f"of dim {self.dim}"
            )
        self.ledger.record(
            stage="embedding",
            model_id=self.backend.model_id,
            input_tokens=sum(map(approx_tokens, texts)),
            output_tokens=0,
            approximate=True,
        )
        return vectors
