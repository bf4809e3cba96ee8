"""Exact-substitution rendering of the four query templates.

Templates are plain text files using ``{name}`` placeholders so operators can
edit prompt wording without touching code. Rendering replaces each known
placeholder verbatim in a single pass; binding values are opaque and never
re-scanned, so code snippets containing braces survive untouched.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .errors import MissingBinding, UnknownTemplate

# Logical binding name -> literal placeholder text, per template. The codegen
# template spells the pass-name slot differently from the characteristics
# one; both bind to pass_name.
TEMPLATE_PLACEHOLDERS: dict[str, dict[str, str]] = {
    "characteristics": {
        "pass_name": "{Optimization Pass Name}",
        "function_code": "{Code of function in optimization pass}",
    },
    "codegen": {
        "pass_name": "{Name of optimization pass}",
        "reqs": "{REQS}",
    },
    "repair": {
        "code": "{Generated code}",
        "error": "{Compilation Error}",
    },
    "mutation": {
        "code": "{CODES}",
        "reqs": "{REQS}",
    },
}

_PLACEHOLDER_TOKEN_RE = re.compile(r"\{[^{}\n]{1,80}\}")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    placeholders: dict[str, str]  # binding name -> literal marker

    def validate(self) -> None:
        known = set(self.placeholders.values())
        for binding, marker in self.placeholders.items():
            if marker not in self.body:
                raise ValueError(
                    f"template {self.template_id!r} is missing placeholder {marker!r}"
                )
        for token in _PLACEHOLDER_TOKEN_RE.findall(self.body):
            if token not in known:
                raise ValueError(
                    f"template {self.template_id!r} contains unknown placeholder {token!r}"
                )


@dataclass(frozen=True)
class RenderedPrompt:
    template_id: str
    text: str
    bindings: dict[str, str]


class PromptFactory:
    """Loads templates from a directory (packaged defaults unless overridden)."""

    def __init__(self, templates_dir: Path | None = None):
        self._templates: dict[str, PromptTemplate] = {}
        # one package lookup, not one per template
        root = Path(templates_dir) if templates_dir is not None else files("ragfuzz") / "prompts"
        for template_id, placeholders in TEMPLATE_PLACEHOLDERS.items():
            body = (root / f"{template_id}.txt").read_text()
            template = PromptTemplate(template_id, body, dict(placeholders))
            template.validate()
            self._templates[template_id] = template

    def template(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise UnknownTemplate(template_id) from None

    def render(self, template_id: str, bindings: dict[str, str]) -> RenderedPrompt:
        """Substitute every placeholder with its binding, byte-exactly.

        All required bindings must be present and non-empty; unexpected
        binding names are rejected to surface caller typos.
        """
        template = self.template(template_id)
        for name in template.placeholders:
            if name not in bindings or not bindings[name]:
                raise MissingBinding(name)
        extra = set(bindings) - set(template.placeholders)
        if extra:
            raise ValueError(f"unexpected bindings for {template_id}: {sorted(extra)}")
        marker_to_value = {
            marker: bindings[name] for name, marker in template.placeholders.items()
        }
        pattern = re.compile("|".join(re.escape(m) for m in marker_to_value))
        text = pattern.sub(lambda m: marker_to_value[m.group(0)], template.body)
        return RenderedPrompt(template_id=template_id, text=text, bindings=dict(bindings))

    def characteristics_prompt(self, pass_name: str, function_code: str) -> RenderedPrompt:
        return self.render(
            "characteristics", {"pass_name": pass_name, "function_code": function_code}
        )

    def codegen_prompt(self, pass_name: str, reqs: str) -> RenderedPrompt:
        return self.render("codegen", {"pass_name": pass_name, "reqs": reqs})

    def repair_prompt(self, code: str, error: str) -> RenderedPrompt:
        return self.render("repair", {"code": code, "error": error})

    def mutation_prompt(self, code: str, reqs: str) -> RenderedPrompt:
        return self.render("mutation", {"code": code, "reqs": reqs})
