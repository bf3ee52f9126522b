"""Fourier coefficients on the integer frequency lattice.

A function on the periodicity cell [0, 2*pi)^n is held as one origin-centred
complex box, ``box[q + R]`` holding the coefficient of frequency ``q``, trimmed
to the smallest sup-norm radius ``R`` that keeps every nonzero coefficient.
Shifted momenta are written ``p_j(t) = t + j`` with ``t`` in the half-open
unit cube and ``j`` an integer vector; ``decompose`` inverts that splitting
by componentwise floor.  All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError

# Canonical form: amplitudes at or below this magnitude are not stored.  The
# threshold sits far below coefficient noise because discarded mass is later
# multiplied by energy gaps of order 1e6 when residuals are audited.
PRUNE_TOL = 1e-18
# Relative tolerance for "is this function real-valued" checks.
HERMITIAN_RTOL = 1e-13
# Largest box of lattice sites any stage allocates; larger requests are
# refused before allocation.  For the admission screen it bounds the
# (n-1)-dimensional column grid, of side 2*(ceil(2k) + 2 + ceil(k^beta)) + 1.
BOX_SITES_MAX = 1 << 22

LatticeIndex = Tuple[int, ...]


def _as_index(q) -> LatticeIndex:
    return tuple(int(round(float(c))) for c in q)


def _box_shape(radius: int, n: int) -> Tuple[int, ...]:
    """Shape of the box of sup-norm ``radius``, refused above BOX_SITES_MAX sites."""
    if n < 1:
        raise ConfigError(f"dimension n must be >= 1, got {n}")
    if (2 * radius + 1) ** n > BOX_SITES_MAX:
        raise ConfigError(f"radius-{radius} box in dimension {n} exceeds {BOX_SITES_MAX} sites")
    return (2 * radius + 1,) * n


def _resize(box: np.ndarray, radius: int) -> np.ndarray:
    """A fresh origin-centred copy of ``box`` with the given radius, zero-padded
    or cropped."""
    n, old = box.ndim, box.shape[0] // 2
    r = min(radius, old)
    out = np.zeros(_box_shape(radius, n), dtype=complex)
    out[(slice(radius - r, radius + r + 1),) * n] = box[(slice(old - r, old + r + 1),) * n]
    return out


def _times(c: complex, box: np.ndarray) -> np.ndarray:
    """``c * box`` with the terms of Python's complex product, one rounding
    per operation (numpy's complex multiply may fuse them)."""
    c = complex(c)
    out = np.empty(box.shape, dtype=complex)
    out.real = c.real * box.real - c.imag * box.imag
    out.imag = c.real * box.imag + c.imag * box.real
    return out


def _above_prune_tol(box: np.ndarray) -> np.ndarray:
    """Mask of entries with modulus above ``PRUNE_TOL``, as Python's ``abs``
    decides it: numpy's complex modulus can differ in the last bit, so
    entries within a few ulps of the tolerance are re-checked one by one."""
    mod = np.abs(box)
    keep = mod > PRUNE_TOL
    near = np.flatnonzero(np.abs(mod - PRUNE_TOL) <= 1e-14 * PRUNE_TOL)
    flat = box.ravel()
    keep.ravel()[near] = [abs(complex(flat[i])) > PRUNE_TOL for i in near]
    return keep


def integer_grid(radius: int, n: int) -> np.ndarray:
    """All integer vectors with sup-norm <= radius, shape (2r+1,)*n + (n,)."""
    side = _box_shape(radius, n)[0]
    axes = [np.arange(side) - radius] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def momentum(j, t) -> np.ndarray:
    """Shifted momentum p_j(t) = t + j."""
    j = np.asarray(j, dtype=float)
    t = np.asarray(t, dtype=float)
    if j.shape != t.shape:
        raise ContractError(f"dimension mismatch: j has shape {j.shape}, t has shape {t.shape}")
    return t + j


def decompose(kvec) -> Tuple[LatticeIndex, np.ndarray]:
    """Split a momentum vector into (j, t) with t in [0, 1)^n componentwise."""
    kvec = np.asarray(kvec, dtype=float)
    j = np.floor(kvec)
    t = kvec - j
    # Guard the floating-point edge where kvec is a hair below an integer.
    high = t >= 1.0
    if np.any(high):
        j = j + high
        t = kvec - j
        t[t < 0.0] = 0.0
    return tuple(int(c) for c in j), t


class PeriodicFunction:
    """A trigonometric polynomial, stored as its canonical coefficient box.

    ``PeriodicFunction(n, {q: c, ...})`` builds one from a frequency map and
    ``from_box`` from an origin-centred array.  ``box`` is read-only; the
    map views (``coeffs``, ``items``, ``get``) list only the nonzero
    coefficients, in lexicographic order of their frequencies.
    """

    __slots__ = ("n", "box")

    def __init__(self, n: int, coeffs: Optional[Mapping] = None):
        items = [(_as_index(q), complex(c)) for q, c in (coeffs or {}).items()]
        for q, _ in items:
            if len(q) != n:
                raise ContractError(f"frequency {q} does not have dimension {n}")
        radius = max((max(abs(s) for s in q) for q, _ in items), default=0)
        box = np.zeros(_box_shape(radius, n), dtype=complex)
        for q, c in items:
            box[tuple(s + radius for s in q)] = c
        canonical = PeriodicFunction.from_box(box)
        self.n, self.box = canonical.n, canonical.box

    @classmethod
    def from_box(cls, arr) -> "PeriodicFunction":
        """The function with coefficients ``arr[q + R]``, for an origin-centred
        array of shape ``(2R+1,) * n``; the array is copied, pruned and trimmed."""
        box = np.array(arr, dtype=complex)
        if box.ndim < 1 or box.shape[0] % 2 == 0 or len(set(box.shape)) != 1:
            raise ContractError(f"box of shape {box.shape} is not origin-centred")
        box[~_above_prune_tol(box)] = 0.0
        nonzero = np.argwhere(box) - box.shape[0] // 2
        out = cls.__new__(cls)
        out.n = box.ndim
        out.box = _resize(box, int(np.abs(nonzero).max()) if nonzero.size else 0)
        out.box.flags.writeable = False
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "PeriodicFunction":
        return PeriodicFunction(n, {})

    @staticmethod
    def constant(n: int, value: complex) -> "PeriodicFunction":
        return PeriodicFunction(n, {(0,) * n: complex(value)})

    # -- basic queries ------------------------------------------------

    def nonzero(self) -> Tuple[np.ndarray, np.ndarray]:
        """Frequencies, shape (m, n), and values, shape (m,), of the nonzero
        coefficients in lexicographic order."""
        mask = self.box != 0
        return np.argwhere(mask) - self.box_radius, self.box[mask]

    @property
    def coeffs(self) -> Dict[LatticeIndex, complex]:
        """A fresh ``frequency -> amplitude`` dict of the nonzero coefficients."""
        offsets, values = self.nonzero()
        return dict(zip(map(tuple, offsets.tolist()), values.tolist()))

    def get(self, q) -> complex:
        idx = tuple(s + self.box_radius for s in _as_index(q))
        inside = len(idx) == self.n and all(0 <= i < self.box.shape[0] for i in idx)
        return complex(self.box[idx]) if inside else 0.0 + 0.0j

    def items(self):
        return self.coeffs.items()

    def to_box(self, radius: int) -> np.ndarray:
        """A fresh writable box of the given radius holding the coefficients
        of sup-norm at most ``radius`` (zero-padded or cropped)."""
        return _resize(self.box, radius)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.box))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.box, other.box)

    __hash__ = None

    @property
    def support_radius(self) -> float:
        """Largest Euclidean norm among stored frequencies (0 when empty)."""
        offsets, _ = self.nonzero()
        return math.sqrt(int((offsets * offsets).sum(axis=1).max(initial=0)))

    @property
    def box_radius(self) -> int:
        """Largest sup-norm among stored frequencies (0 when empty)."""
        return (self.box.shape[0] - 1) // 2

    def is_real_valued(self, rtol: float = HERMITIAN_RTOL) -> bool:
        """True when coefficients satisfy w(-q) == conj(w(q)) to within rtol."""
        scale = max(1.0, star_norm(self))
        return not np.any(np.abs(np.flip(self.box) - self.box.conj()) > rtol * scale)

    def is_even(self) -> bool:
        """True when every coefficient is exactly real; a real-valued function
        then has ``w(-q) == w(q)`` and is even in ``x``."""
        return not self.box.imag.any()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        if self.n != other.n:
            raise ContractError("dimension mismatch in addition")
        radius = max(self.box_radius, other.box_radius)
        out, addend = self.to_box(radius), other.to_box(radius)
        # Only stored coefficients are added, so untouched ones keep their bits.
        np.add(out, addend, out=out, where=addend != 0)
        return PeriodicFunction.from_box(out)

    def __sub__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "PeriodicFunction":
        return PeriodicFunction.from_box(_times(s, self.box))

    def conj(self) -> "PeriodicFunction":
        """Complex conjugate of the function: frequencies flip sign."""
        return PeriodicFunction.from_box(np.flip(self.box).conj())


def star_norm(f: PeriodicFunction) -> float:
    """Sum of coefficient magnitudes (the Wiener-algebra norm)."""
    # Python's abs, not np.abs: numpy's complex modulus can differ in the
    # last bit, and star norms are compared exactly across representations.
    return math.fsum(map(abs, f.box.ravel().tolist()))


def multiply(f: PeriodicFunction, g: PeriodicFunction) -> PeriodicFunction:
    """Pointwise product, computed as the exact convolution of coefficients.

    ``c * g`` is shifted and added into the output once per nonzero ``c`` of
    ``f``, in lexicographic order of its frequency, and only where ``g`` is
    stored, so each coefficient sums the same terms in the same order as a
    loop over coefficient pairs.  When both factors are even (every
    coefficient exactly real) the cross terms of the complex product are
    exact zeros, so the sums run on the real parts alone, bitwise equal to
    the complex path.
    """
    if f.n != g.n:
        raise ContractError("dimension mismatch in multiply")
    rf, rg = f.box_radius, g.box_radius
    real = f.is_even() and g.is_even()
    out = np.zeros(_box_shape(rf + rg, f.n), dtype=float if real else complex)
    box = g.box.real if real else g.box
    stored = box != 0
    side = 2 * rg + 1
    offsets, values = f.nonzero()
    for corner, c in zip((offsets + rf).tolist(), values.tolist()):
        view = out[tuple(slice(i, i + side) for i in corner)]
        np.add(view, c.real * box if real else _times(c, box), out=view, where=stored)
    return PeriodicFunction.from_box(out)


def abs_squared(f: PeriodicFunction) -> PeriodicFunction:
    """|f|^2 as a periodic function; Hermitian-symmetric by construction."""
    return multiply(f, f.conj())


def zero_mean_shift(f: PeriodicFunction) -> Tuple[PeriodicFunction, float]:
    """Split off the mean: returns (f - w0, w0) with w0 the zero-frequency part.

    The mean of a real-valued function must be real; a complex mean beyond
    rounding dust is a contract violation.
    """
    w0 = f.get((0,) * f.n)
    if abs(w0.imag) > HERMITIAN_RTOL * max(1.0, star_norm(f)):
        raise ContractError(f"mean {w0} has a non-negligible imaginary part")
    return f - PeriodicFunction.constant(f.n, w0), float(w0.real)


def truncate_support(f: PeriodicFunction, radius: float) -> Tuple[PeriodicFunction, float]:
    """Drop coefficients with Euclidean frequency norm above ``radius``.

    Returns (truncated function, star norm of the dropped tail); the tail is
    reported so callers can log it rather than lose it silently.
    """
    if radius < 0:
        raise ContractError("truncation radius must be nonnegative")
    grid = integer_grid(f.box_radius, f.n)
    near = (grid * grid).sum(axis=-1) <= float(radius) * float(radius)
    dropped = PeriodicFunction.from_box(np.where(near, 0.0, f.box))
    return PeriodicFunction.from_box(np.where(near, f.box, 0.0)), star_norm(dropped)


# -- serialization ----------------------------------------------------

def to_json_dict(f: PeriodicFunction) -> Dict[str, list]:
    """Map ``"q1,q2,...,qn" -> [re, im]``; keys sorted for determinism."""
    return {",".join(str(s) for s in q): [c.real, c.imag] for q, c in f.items()}


def from_json_dict(d: Mapping[str, Iterable[float]], n: int) -> PeriodicFunction:
    coeffs: Dict[LatticeIndex, complex] = {}
    for key, (re, im) in d.items():
        coeffs[tuple(int(s) for s in key.split(","))] = complex(re, im)
    return PeriodicFunction(n, coeffs)


# -- model context ----------------------------------------------------

@dataclass(frozen=True)
class ModelContext:
    """Immutable bundle of model parameters shared across all stages.

    ``V`` is the periodic potential (real-valued, zero mean), ``sigma`` the
    cubic coupling and ``A`` the amplitude of the unperturbed plane wave.
    ``delta``/``beta`` steer the admission thresholds, and ``r_max``,
    ``tol_root`` and ``seed`` are the numerical controls a caller sets; the
    others are module constants or derived here.  Stages read their
    controls from here alone (``diagonalize_oracle(window=)`` aside; its
    ``isolation=`` is a certificate, not a control), so a variant is
    ``dataclasses.replace(ctx, r_max=...)``.
    """

    n: int
    l: int
    sigma: float
    A: complex
    V: PeriodicFunction
    delta: float = 0.05
    beta: float = 0.4
    r_max: int = 6
    tol_root: Optional[float] = None     # None: 1e-9 * target eigenvalue
    seed: int = 42

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("dimension n must be >= 1")
        if self.l < 1:
            raise ConfigError("order l must be >= 1")
        if not 4 * self.l > self.n + 1:
            raise ConfigError(f"need 4*l > n + 1, got 4*{self.l} <= {self.n} + 1")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"need 0 < beta < 1, got beta = {self.beta}")
        if self.n > 1 and not 0.0 < 2.0 * self.delta < (self.n - 1) * (1.0 - self.beta):
            raise ConfigError(
                f"need 0 < 2*delta < (n-1)*(1-beta), got 2*{self.delta} vs "
                f"{(self.n - 1) * (1.0 - self.beta)}"
            )
        if self.n == 1 and self.delta <= 0.0:
            raise ConfigError("need delta > 0")
        if not math.isfinite(abs(self.A) * abs(self.A)):
            raise ConfigError(f"amplitude A = {self.A} must be finite with a finite |A|^2")
        if self.V.n != self.n:
            raise ConfigError("potential dimension does not match n")
        if self.V.get((0,) * self.n) != 0:
            raise ConfigError("potential must have zero mean (no zero-frequency coefficient)")
        if not self.V.is_real_valued():
            raise ConfigError("potential must be real-valued (Hermitian coefficients)")
        if self.r_max < 2:
            raise ConfigError("r_max must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tol_root is not None and not 0.0 < self.tol_root < math.inf:
            raise ConfigError(f"tol_root must be finite and > 0, got {self.tol_root}")

    # -- derived quantities -------------------------------------------

    @property
    def v_star(self) -> float:
        return star_norm(self.V)

    @property
    def tol_fp_value(self) -> float:
        """Fixed-point stopping tolerance on the increment of ``W``."""
        return 1e-12 * self.v_star

    def m_lin(self, k: float) -> int:
        """Default sup-norm radius of the oracle window around the anchor."""
        return int(math.ceil(2.0 * k))

    def m_w(self) -> float:
        """Truncation radius of ``W``; the star norm it drops is traced."""
        return (8.0 + self.r_max) * self.V.support_radius


def cosine_potential(n: int, amplitudes) -> PeriodicFunction:
    """Sum of 2*a_s*cos(x_s) terms: a convenience for the standard test potentials."""
    coeffs: Dict[LatticeIndex, complex] = {}
    for axis, a in enumerate(amplitudes):
        if a == 0.0:
            continue
        for sign in (+1, -1):
            q = [0] * n
            q[axis] = sign
            coeffs[tuple(q)] = complex(a)
    return PeriodicFunction(n, coeffs)
