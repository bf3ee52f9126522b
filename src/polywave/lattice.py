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
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

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
# (n-1)-dimensional column grid, of side 2*(ceil(2k) + 2 + ceil(k^beta)) + 1,
# and the entries of a draw of sample directions.
BOX_SITES_MAX = 1 << 22
# Coefficient pairs per scatter-add in ``multiply``: a block's index and term
# arrays stay in cache, and peak memory does not grow with the pair count.
PAIR_BLOCK = 1 << 13

LatticeIndex = Tuple[int, ...]


def _as_index(q) -> LatticeIndex:
    """``q`` as a tuple of ints; a component that is not an integer is
    refused, not rounded onto a neighbouring site."""
    q = tuple(q)
    try:
        index = tuple(map(int, q))
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or index != q:
        raise ContractError(f"frequency {q} is not an integer vector")
    return index


def _box_shape(radius: int, n: int) -> Tuple[int, ...]:
    """Shape of the box of sup-norm ``radius``, refused above BOX_SITES_MAX sites
    and in dimensions numpy's grid functions do not take (above 32)."""
    if not 1 <= n <= 32:
        raise ConfigError(f"dimension n must be between 1 and 32, got {n}")
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


def _times(a, b) -> np.ndarray:
    """``a * b``, broadcast, with the terms of Python's complex product, one
    rounding per operation (numpy's complex multiply may fuse them)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def moduli(box: np.ndarray) -> np.ndarray:
    """Modulus of every entry of a complex array, bitwise equal to Python's
    ``abs``: ``complex.__abs__`` and ``np.hypot`` both return the C library's
    ``hypot``, while numpy's complex ``abs`` can differ in the last bit.
    Pruning and star norms are decided exactly, so every one of them reads
    this modulus."""
    return np.hypot(box.real, box.imag)


@lru_cache(maxsize=16)
def _sup_norms(radius: int, n: int) -> np.ndarray:
    """Sup-norm of every site of the box of the given radius."""
    norms = np.abs(integer_grid(radius, n)).max(axis=-1)
    norms.flags.writeable = False
    return norms


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
        items = (coeffs or {}).items()
        canonical = _from_frequencies(n, [_as_index(q) for q, _ in items],
                                      [complex(c) for _, c in items])
        self.n, self.box = canonical.n, canonical.box

    @classmethod
    def from_box(cls, arr) -> "PeriodicFunction":
        """The function with coefficients ``arr[q + R]``, for an origin-centred
        array of shape ``(2R+1,) * n``: entries at or below ``PRUNE_TOL`` are
        dropped and the box is trimmed to the largest sup-norm kept, in one
        pass into a fresh box; ``arr`` itself is never written."""
        box = np.asarray(arr, dtype=complex)
        if box.ndim < 1 or box.shape[0] % 2 == 0 or len(set(box.shape)) != 1:
            raise ContractError(f"box of shape {box.shape} is not origin-centred")
        mod = moduli(box)
        if not np.isfinite(mod).all():
            # a NaN compares false with PRUNE_TOL, so the mask would drop it unseen
            raise ContractError("coefficients must be finite")
        keep = mod > PRUNE_TOL
        half = box.shape[0] // 2
        radius = int(_sup_norms(half, box.ndim)[keep].max(initial=0))
        crop = (slice(half - radius, half + radius + 1),) * box.ndim
        out = cls.__new__(cls)
        out.n = box.ndim
        out.box = np.where(keep[crop], box[crop], 0.0)
        out.box.flags.writeable = False
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "PeriodicFunction":
        return PeriodicFunction(n, {})

    @staticmethod
    def constant(n: int, value: complex) -> "PeriodicFunction":
        return PeriodicFunction.from_box(np.full(_box_shape(0, n), complex(value)))

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
        return self._combine(other, negate=False)

    def __sub__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        return self._combine(other, negate=True)

    def _combine(self, other: "PeriodicFunction", negate: bool) -> "PeriodicFunction":
        """``self + other``, or ``self + other.scale(-1.0)`` term for term."""
        if self.n != other.n:
            raise ContractError("dimension mismatch in addition")
        radius = max(self.box_radius, other.box_radius)
        out, addend = self.to_box(radius), other.to_box(radius)
        # Only stored coefficients are added, so untouched ones keep their bits.
        np.add(out, _times(-1.0, addend) if negate else addend, out=out, where=addend != 0)
        return PeriodicFunction.from_box(out)

    def scale(self, s: complex) -> "PeriodicFunction":
        return PeriodicFunction.from_box(_times(s, self.box))

    def conj(self) -> "PeriodicFunction":
        """Complex conjugate of the function: frequencies flip sign."""
        return PeriodicFunction.from_box(np.flip(self.box).conj())


def _from_frequencies(n: int, freqs: Sequence[LatticeIndex], values: Sequence[complex]):
    """The function with coefficient ``values[i]`` at frequency ``freqs[i]``,
    by one fill of a box and ``from_box``."""
    seen = set()
    for q in freqs:
        if len(q) != n:
            raise ContractError(f"frequency {q} does not have dimension {n}")
        if q in seen:
            raise ContractError(f"frequency {q} is given twice")
        seen.add(q)
    radius = max((max(map(abs, q)) for q in freqs), default=0)
    box = np.zeros(_box_shape(radius, n), dtype=complex)
    if freqs:
        box[tuple((np.array(freqs) + radius).T)] = values
    return PeriodicFunction.from_box(box)


def star_norm(f: PeriodicFunction) -> float:
    """Sum of coefficient magnitudes (the Wiener-algebra norm), correctly
    rounded: star norms are compared exactly across representations."""
    return math.fsum(moduli(f.box).ravel().tolist())


def multiply(f: PeriodicFunction, g: PeriodicFunction) -> PeriodicFunction:
    """Pointwise product, computed as the exact convolution of coefficients.

    The products of all pairs of nonzero coefficients are scatter-added
    (``np.add.at`` adds them one after another) into a zeroed output,
    ``PAIR_BLOCK`` pairs at a time, in lexicographic order of ``f``'s
    frequencies: each coefficient sums the same terms in the same order as the
    pair loop of ``tests/dict_reference.py``, bitwise equal, signed zeros
    included.  When both factors are even (every coefficient exactly real)
    the cross terms of the complex product are exact zeros, so the sums run
    on the real parts alone, bitwise equal to the complex path.
    """
    if f.n != g.n:
        raise ContractError("dimension mismatch in multiply")
    rf, rg = f.box_radius, g.box_radius
    shape = _box_shape(rf + rg, f.n)
    real = f.is_even() and g.is_even()
    out = np.zeros(math.prod(shape), dtype=float if real else complex)
    (qf, a), (qg, b) = f.nonzero(), g.nonzero()
    if real:
        a, b = a.real, b.real
    at_f = np.ravel_multi_index(tuple((qf + rf).T), shape)
    at_g = np.ravel_multi_index(tuple((qg + rg).T), shape)
    rows = max(1, PAIR_BLOCK // max(1, len(b)))
    for lo in range(0, len(a), rows):
        c = a[lo:lo + rows, None]
        terms = c * b if real else _times(c, b)
        # A flat index array keeps np.add.at on its fast path.
        np.add.at(out, (at_f[lo:lo + rows, None] + at_g).ravel(), terms.ravel())
    return PeriodicFunction.from_box(out.reshape(shape))


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
    box = f.to_box(f.box_radius)
    box[(f.box_radius,) * f.n] = 0.0
    return PeriodicFunction.from_box(box), float(w0.real)


def truncate_support(f: PeriodicFunction, radius: float) -> Tuple[PeriodicFunction, float]:
    """Drop coefficients with Euclidean frequency norm above ``radius``.

    Returns (truncated function, star norm of the dropped tail); the tail is
    reported so callers can log it rather than lose it silently.  Where the
    box's farthest corner, at norm ``sqrt(n) R``, lies within ``radius``,
    nothing is dropped and ``f`` itself comes back.
    """
    if radius < 0:
        raise ContractError("truncation radius must be nonnegative")
    r2 = float(radius) * float(radius)
    if f.n * f.box_radius ** 2 <= r2:
        return f, 0.0
    grid = integer_grid(f.box_radius, f.n)
    near = (grid * grid).sum(axis=-1) <= r2
    tail = math.fsum(moduli(f.box[~near]).tolist())
    return PeriodicFunction.from_box(np.where(near, f.box, 0.0)), tail


# -- serialization ----------------------------------------------------

def to_json_dict(f: PeriodicFunction) -> Dict[str, list]:
    """Map ``"q1,q2,...,qn" -> [re, im]``; keys sorted for determinism."""
    return {",".join(str(s) for s in q): [c.real, c.imag] for q, c in f.items()}


def from_json_dict(d: Mapping[str, Iterable[float]], n: int) -> PeriodicFunction:
    freqs = [tuple(int(s) for s in key.split(",")) for key in d]
    return _from_frequencies(n, freqs, [complex(re, im) for re, im in d.values()])


# -- model context ----------------------------------------------------

@dataclass(frozen=True)
class ModelContext:
    """Immutable bundle of model parameters shared across all stages.

    ``V`` is the periodic potential (real-valued, zero mean), ``sigma`` the
    cubic coupling and ``A`` the amplitude of the unperturbed plane wave.
    ``delta``/``beta`` steer the admission thresholds, and ``r_max``,
    ``tol_root`` and ``seed`` are the numerical controls a caller sets; the
    others are module constants or derived here.  ``r_max`` is the largest
    series order a band solve runs: one whose tail is certified stops at the
    first order whose bound is within ``tol_fp_value``.  Stages read their
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
        modulus = math.hypot(self.A.real, self.A.imag)      # abs(A) raises on overflow
        if not math.isfinite(modulus * modulus):
            raise ConfigError(f"amplitude A = {self.A} must be finite with a finite |A|^2")
        if self.V.n != self.n:
            raise ConfigError("potential dimension does not match n")
        if self.V.get((0,) * self.n) != 0:
            raise ConfigError("potential must have zero mean (no zero-frequency coefficient)")
        try:
            finite = math.isfinite(star_norm(self.V))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("potential V has no finite star norm")
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
