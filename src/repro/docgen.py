"""Generate ``docs/api.md`` from the live registries and docstrings.

The API reference is *derived*, never hand-written: this module walks
the five public registries (attention kernels, pattern builders, models,
engines, compute backends) and the public surface of :mod:`repro.api`,
:mod:`repro.serve`, :mod:`repro.net`, :mod:`repro.stream` and
:mod:`repro.store` (their
``__all__``, signatures, and first docstring paragraphs) and renders one
deterministic markdown document.  The
generated file is checked in; CI regenerates it and fails when it is
stale, so the reference can never drift from the code.

Usage::

    python -m repro.docgen            # rewrite docs/api.md
    python -m repro.docgen --check    # exit 1 if docs/api.md is stale
    python -m repro.docgen --output PATH

Determinism rules: registries are iterated in sorted order, no
timestamps or environment details are embedded, and signatures are
rendered as parameter names only (``arg``, ``arg=…``, ``*``, ``**kw``) —
never annotations or default reprs, which vary across Python versions.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Sequence

__all__ = ["render_api_docs", "default_output_path", "main"]

_HEADER = """\
# API reference

> Generated by `python -m repro.docgen` from the live registries and
> docstrings — do not edit by hand.  CI fails when this file is stale;
> regenerate with `PYTHONPATH=src python -m repro.docgen`.
"""


def _first_paragraph(obj) -> str:
    """The first docstring paragraph, flattened to one line."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(undocumented)*"
    return " ".join(doc.split("\n\n", 1)[0].split())


def _signature(obj) -> str:
    """Parameter names only — stable across Python versions."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(…)"
    parts = []
    for p in sig.parameters.values():
        if p.name == "self":
            continue
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            parts.append(f"*{p.name}")
        elif p.kind is inspect.Parameter.VAR_KEYWORD:
            parts.append(f"**{p.name}")
        elif p.default is not inspect.Parameter.empty:
            parts.append(f"{p.name}=…")
        else:
            parts.append(p.name)
    return "(" + ", ".join(parts) + ")"


def _yes(flag: bool) -> str:
    return "yes" if flag else "—"


def _render_kernels(lines: list[str]) -> None:
    from .attention import iter_kernels

    lines += ["## Attention-kernel registry", "",
              "Registered via `repro.attention.register_kernel`; every "
              "dispatch site (models, engines, autotuner, cost model, CLI) "
              "resolves kernels here.", "",
              "| kernel | complexity | bias | needs pattern | trainable "
              "| exact | cost-model kind |",
              "|---|---|---|---|---|---|---|"]
    for s in sorted(iter_kernels(), key=lambda s: s.name):
        lines.append(
            f"| `{s.name}` | {s.complexity or '—'} | {_yes(s.supports_bias)} "
            f"| {_yes(s.needs_pattern)} | {_yes(s.trainable)} "
            f"| {_yes(s.exact)} | {s.attention_kind} |")
    lines.append("")


def _render_patterns(lines: list[str]) -> None:
    from .attention import iter_pattern_builders

    lines += ["## Pattern-builder registry", "",
              "Registered via `repro.attention.register_pattern_builder`; "
              "named sparse-attention patterns for the `fixed-pattern` "
              "engine and the ablations.", "",
              "| pattern | input | description |", "|---|---|---|"]
    for s in sorted(iter_pattern_builders(), key=lambda s: s.name):
        lines.append(f"| `{s.name}` | "
                     f"{'graph' if s.needs_graph else 'seq_len'} "
                     f"| {s.description or '—'} |")
    lines.append("")


def _render_models(lines: list[str]) -> None:
    from .models import iter_models

    lines += ["## Model registry", "",
              "Registered via `repro.models.register_model`; build with "
              "`repro.models.build_model(name, feature_dim, num_classes, "
              "**overrides)`.", "",
              "| model | aliases | engine protocol | description |",
              "|---|---|---|---|"]
    for s in sorted(iter_models(), key=lambda s: s.name):
        lines.append(f"| `{s.name}` | {', '.join(s.aliases) or '—'} "
                     f"| {_yes(s.engine_protocol)} | {s.description or '—'} |")
    lines.append("")


def _render_engines(lines: list[str]) -> None:
    from .core import engine_registry

    lines += ["## Engine registry", "",
              "Registered via `repro.core.register_engine`; build with "
              "`repro.core.make_engine(name, **options)` or through "
              "`EngineConfig(name)`.", "",
              "| engine | class | description |", "|---|---|---|"]
    for name, cls in sorted(engine_registry().items()):
        lines.append(f"| `{name}` | `{cls.__name__}` "
                     f"| {_first_paragraph(cls)} |")
    lines.append("")


def _render_backends(lines: list[str]) -> None:
    from .backend import iter_backends

    lines += ["## Compute-backend registry", "",
              "Registered via `repro.backend.register_backend`; selected "
              "with `EngineConfig(backend=…)` or the CLI `--backend` flag. "
              "numba availability is process-local (see `repro backends`) "
              "and is deliberately not rendered here; results are "
              "bitwise-identical either way.", "",
              "| backend | compiled | deterministic | precisions "
              "| description |", "|---|---|---|---|---|"]
    for s in iter_backends():
        lines.append(
            f"| `{s.name}` | {_yes(s.compiled)} "
            f"| {'bitwise' if s.deterministic else 'approx'} "
            f"| {'/'.join(s.precisions)} | {s.description or '—'} |")
    lines.append("")


def _render_module(lines: list[str], module, title: str) -> None:
    lines += [f"## `{module.__name__}` — {title}", "",
              _first_paragraph(module), ""]
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{_signature(obj)}`")
            lines += ["", _first_paragraph(obj), ""]
            for mname, member in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if isinstance(member, staticmethod) or isinstance(
                        member, classmethod):
                    member = member.__func__
                if inspect.isfunction(member):
                    lines.append(f"- `{mname}{_signature(member)}` — "
                                 f"{_first_paragraph(member)}")
                elif isinstance(vars(obj)[mname], property):
                    lines.append(f"- `{mname}` *(property)* — "
                                 f"{_first_paragraph(member.fget)}")
            for base in obj.__mro__[1:]:
                # an in-package base's methods are this class's surface
                # too; name them (their entries are under the base)
                if (not base.__module__.startswith("repro.")
                        or base.__name__.startswith("_")):
                    continue
                inherited = sorted(
                    m for m, member in vars(base).items()
                    if not m.startswith("_") and inspect.isfunction(member)
                    and m not in vars(obj))
                if inherited:
                    lines.append(
                        f"- inherited from `{base.__name__}`: "
                        + ", ".join(f"`{m}`" for m in inherited))
            if lines[-1] != "":
                lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{_signature(obj)}`")
            lines += ["", _first_paragraph(obj), ""]
        else:  # re-exported constants and the like
            lines.append(f"### `{name}`")
            lines += ["", _first_paragraph(obj), ""]


def render_api_docs() -> str:
    """The full docs/api.md content as one deterministic string."""
    import repro.api
    import repro.net
    import repro.obs
    import repro.serve
    import repro.store
    import repro.stream

    lines: list[str] = [_HEADER]
    _render_engines(lines)
    _render_backends(lines)
    _render_kernels(lines)
    _render_patterns(lines)
    _render_models(lines)
    _render_module(lines, repro.api,
                   "run configuration and the Session lifecycle")
    _render_module(lines, repro.serve,
                   "batched serving and the sharded cluster")
    _render_module(lines, repro.net,
                   "socket RPC front-end and multi-tenant admission")
    _render_module(lines, repro.stream,
                   "streaming graph updates and dataset versioning")
    _render_module(lines, repro.store,
                   "out-of-core chunked, memory-mapped dataset storage")
    _render_module(lines, repro.obs,
                   "metrics registry, request tracing and profiling hooks")
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def default_output_path() -> str:
    """``docs/api.md`` at the repository root (cwd-independent)."""
    import os

    here = os.path.dirname(os.path.abspath(__file__))   # src/repro
    root = os.path.dirname(os.path.dirname(here))       # repo root
    return os.path.join(root, "docs", "api.md")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: write or check the generated reference."""
    parser = argparse.ArgumentParser(
        prog="repro.docgen",
        description="generate docs/api.md from registries and docstrings")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="where to write (default: docs/api.md at the "
                             "repo root)")
    parser.add_argument("--check", action="store_true",
                        help="do not write; exit 1 if the file on disk "
                             "differs from what would be generated")
    args = parser.parse_args(argv)
    path = args.output or default_output_path()
    text = render_api_docs()
    if args.check:
        try:
            with open(path) as f:
                on_disk = f.read()
        except FileNotFoundError:
            print(f"docgen: {path} is missing — run "
                  "`python -m repro.docgen`", file=sys.stderr)
            return 1
        if on_disk != text:
            print(f"docgen: {path} is stale — run "
                  "`python -m repro.docgen`", file=sys.stderr)
            return 1
        print(f"docgen: {path} is up to date")
        return 0
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    print(f"docgen: wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
