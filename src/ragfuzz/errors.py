"""Exception hierarchy shared across the package."""


class RagfuzzError(Exception):
    """Base class for all errors raised by this package."""


# --- extraction ---

class EmptySource(RagfuzzError):
    pass


# --- rag / embeddings ---

class InvalidPolicy(RagfuzzError):
    pass


class DimensionMismatch(RagfuzzError):
    pass


class ZeroVector(RagfuzzError):
    pass


class EmptyIndex(RagfuzzError):
    pass


# --- prompts ---

class UnknownTemplate(RagfuzzError):
    pass


class MissingBinding(RagfuzzError):
    def __init__(self, name: str):
        super().__init__(f"missing binding: {name}")
        self.name = name


# --- providers ---

class ProviderError(RagfuzzError):
    pass


class TransportError(ProviderError):
    """Transient transport-level failure; eligible for retry."""


class ProviderTimeout(TransportError):
    pass


class AuthFailure(ProviderError):
    """Authentication rejected by the provider; never retried."""


class ProviderUnavailable(ProviderError):
    """Raised once the retry budget is exhausted."""


class EmptyResponse(ProviderError):
    pass


# --- generation pipeline ---

class EmptyCatalog(RagfuzzError):
    pass


class NoCodeBlock(RagfuzzError):
    pass


# --- toolchain ---

class ToolNotFound(RagfuzzError):
    pass


# --- differential testing ---

class InsufficientCells(RagfuzzError):
    pass


# --- cost ledger ---

class UnpricedModel(RagfuzzError):
    def __init__(self, model_id: str):
        super().__init__(f"no pricing for model: {model_id}")
        self.model_id = model_id


# --- scenarios ---

class UnknownScenario(RagfuzzError):
    pass


class OpenWorldKey(RagfuzzError):
    """A scripted scenario was asked for a key it does not define."""


# --- records ---

class RecordError(RagfuzzError):
    """A record field that is missing, cannot be read as its type, or breaks
    a rule of its record."""

    def __init__(self, field_path: str, reason: str):
        super().__init__(f"{field_path}: {reason}" if field_path else reason)
        self.field_path = field_path
        self.reason = reason


# --- campaign / config ---

class ConfigError(RagfuzzError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


class ConfigMismatch(RagfuzzError):
    pass


class CorruptManifest(RagfuzzError):
    pass
