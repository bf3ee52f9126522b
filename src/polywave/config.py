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

_INT_KEYS = {"n", "l", "r_max", "seed", "samples"}
_FLOAT_KEYS = {"sigma", "delta", "beta", "tol_root", "k", "lambda"}
_COMPLEX_KEYS = {"A"}
_FLOAT_TUPLE_KEYS = {"t"}
_INT_TUPLE_KEYS = {"j"}

# Every ModelContext field but the potential, which ``v.<q>`` lines set.
_MODEL_KEYS = {f.name for f in fields(ModelContext)} - {"V"}
_RUN_KEYS = {"k", "lambda", "samples", "t", "j", "solution"}
_ALL_KEYS = _MODEL_KEYS | _RUN_KEYS


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


def _finite(value, key: str, lineno: int):
    """Return ``value`` unless it (or its imaginary part) is nan or infinite."""
    if not cmath.isfinite(value):
        raise _fail(lineno, f"non-finite value {value!r} for key {key!r}")
    return value


def _parse_scalar(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return _finite(float(raw), key, lineno)
        if key in _COMPLEX_KEYS:
            return _finite(complex(raw), key, lineno)
        if key in _FLOAT_TUPLE_KEYS:
            return tuple(_finite(float(p), key, lineno) for p in raw.split(","))
        if key in _INT_TUPLE_KEYS:
            return tuple(int(p) for p in raw.split(","))
        return raw
    except ValueError as exc:
        raise _fail(lineno, f"invalid value {raw!r} for key {key!r}") from exc


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
            try:
                coeffs[q] = _finite(complex(raw), key, lineno)
            except ValueError as exc:
                raise _fail(lineno, f"invalid coefficient value {raw!r}") from exc
            if math.isinf(math.hypot(coeffs[q].real, coeffs[q].imag)):
                raise _fail(lineno, f"coefficient {key!r} has no finite modulus")
            continue

        if key not in _ALL_KEYS:
            raise _fail(lineno, f"unknown key {key!r}")
        if key in seen_lines:
            raise _fail(lineno, f"duplicate key {key!r} (first set on line {seen_lines[key]})")
        seen_lines[key] = lineno
        values[key] = _parse_scalar(key, raw, lineno)

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

    t = values.get("t")
    if t is not None and len(t) != n:
        raise ConfigError(f"t must have {n} components")
    j = values.get("j")
    if j is not None and len(j) != n:
        raise ConfigError(f"j must have {n} components")

    return RunConfig(
        ctx=ctx,
        k=values.get("k"),
        lam=values.get("lambda"),
        samples=values.get("samples"),
        t=t,
        j=j,
        solution=values.get("solution"),
    )
