"""Flat key-value run configuration files.

One assignment per line, ``#`` starts a comment, blank lines are ignored:

    n = 2
    l = 3
    sigma = 0.001
    A = 1.0
    v.1,0 = 1.0
    v.-1,0 = 1.0
    t = 0.23,0.71
    j = 17,3

Potential coefficients use ``v.<q1>,...,<qn> = value``; every other key is
from a fixed vocabulary, and anything unknown, duplicated, malformed or
non-finite (``nan``, ``inf``) is rejected with its line number, as is a
``samples`` count below one.  The model keys mirror the ``ModelContext``
fields; the run keys parameterize individual CLI commands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .lattice import ModelContext, PeriodicFunction


def _finite(kind):
    """A parser for ``kind`` that refuses a nan or infinite value."""
    def parse(raw: str):
        value = kind(raw)
        if not cmath.isfinite(value):
            raise ConfigError(f"non-finite value {value!r}")
        return value
    return parse


_REAL, _COMPLEX = _finite(float), _finite(complex)
# Every key but the potential's ``v.<q>`` lines (parsed by ``_COMPLEX``), and its parser.
_PARSERS = {
    "n": int, "l": int, "sigma": _REAL, "A": _COMPLEX, "delta": _REAL, "beta": _REAL,
    "r_max": int, "tol_root": _REAL, "seed": int,
    "k": _REAL, "lambda": _REAL, "samples": int,
    "t": lambda raw: tuple(map(_REAL, raw.split(","))),
    "j": lambda raw: tuple(map(int, raw.split(","))), "solution": str,
}
# Every ModelContext field but the potential; the other keys set RunConfig
# fields of the same name, but ``lambda`` (a Python keyword) sets ``lam``.
_MODEL_KEYS = {f.name for f in fields(ModelContext)} - {"V"}
_RUN_FIELDS = {"lambda": "lam"}


@dataclass(frozen=True)
class RunConfig:
    """A validated model context plus the per-command run parameters."""

    ctx: ModelContext
    k: Optional[float] = None
    lam: Optional[float] = None
    samples: Optional[int] = None
    t: Optional[Tuple[float, ...]] = None
    j: Optional[Tuple[int, ...]] = None
    solution: Optional[str] = None


def _fail(lineno: int, message: str) -> ConfigError:
    return ConfigError(f"line {lineno}: {message}")


def _parse(parse, key: str, raw: str, lineno: int, invalid: str):
    """``parse(raw)``, a refusal naming the line where it fails."""
    try:
        return parse(raw)
    except ConfigError as exc:
        raise _fail(lineno, f"{exc} for key {key!r}") from None
    except ValueError as exc:
        raise _fail(lineno, invalid) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    values: Dict[str, object] = {}
    seen_lines: Dict[str, int] = {}
    coeffs: Dict[Tuple[int, ...], complex] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise _fail(lineno, f"expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not key:
            raise _fail(lineno, "empty key")
        if not raw:
            raise _fail(lineno, f"empty value for key {key!r}")

        if key.startswith("v."):
            try:
                q = tuple(int(p) for p in key[2:].split(","))
            except ValueError as exc:
                raise _fail(lineno, f"malformed frequency in {key!r}") from exc
            if q in coeffs:
                raise _fail(lineno, f"duplicate potential coefficient {key!r}")
            coeffs[q] = _parse(_COMPLEX, key, raw, lineno, f"invalid coefficient value {raw!r}")
            if math.isinf(math.hypot(coeffs[q].real, coeffs[q].imag)):
                raise _fail(lineno, f"coefficient {key!r} has no finite modulus")
            continue

        if key not in _PARSERS:
            raise _fail(lineno, f"unknown key {key!r}")
        if key in seen_lines:
            raise _fail(lineno, f"duplicate key {key!r} (first set on line {seen_lines[key]})")
        seen_lines[key] = lineno
        values[key] = _parse(_PARSERS[key], key, raw, lineno,
                             f"invalid value {raw!r} for key {key!r}")

    if values.get("samples", 1) < 1:
        raise _fail(seen_lines["samples"], "samples must be >= 1")
    for required in ("n", "l"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    n = values["n"]

    for q in coeffs:
        if len(q) != n:
            raise ConfigError(f"potential frequency {q} does not have dimension {n}")

    ctx_kwargs = {"sigma": 0.0, "A": 1.0 + 0.0j, "V": PeriodicFunction(n, coeffs)}
    ctx_kwargs.update((key, values[key]) for key in _MODEL_KEYS if key in values)
    ctx = ModelContext(**ctx_kwargs)

    for key in ("t", "j"):
        if key in values and len(values[key]) != n:
            raise ConfigError(f"{key} must have {n} components")

    run = {_RUN_FIELDS.get(key, key): value
           for key, value in values.items() if key not in _MODEL_KEYS}
    return RunConfig(ctx=ctx, **run)
