"""Sparse Fourier arithmetic on the integer frequency lattice.

Functions on the periodicity cell [0, 2*pi)^n are held as finite maps
``frequency tuple -> complex amplitude``.  Shifted momenta are written
``p_j(t) = t + j`` with ``t`` in the half-open unit cube and ``j`` an
integer vector; ``decompose`` inverts that splitting by componentwise
floor.  All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError

# Canonical form: amplitudes at or below this magnitude are not stored.  The
# threshold sits far below coefficient noise because discarded mass is later
# multiplied by energy gaps of order 1e6 when residuals are audited.
PRUNE_TOL = 1e-18
# Relative tolerance for "is this function real-valued" checks.
HERMITIAN_RTOL = 1e-13

LatticeIndex = Tuple[int, ...]


def _as_index(q) -> LatticeIndex:
    return tuple(int(round(float(c))) for c in q)


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


@dataclass(frozen=True)
class PeriodicFunction:
    """A trigonometric polynomial, stored sparsely by frequency.

    The coefficient map is canonicalized on construction: keys become int
    tuples sorted lexicographically, and amplitudes with magnitude below
    ``PRUNE_TOL`` are dropped.
    """

    n: int
    coeffs: Dict[LatticeIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        canon: Dict[LatticeIndex, complex] = {}
        for q, c in sorted(((_as_index(q), complex(c)) for q, c in self.coeffs.items())):
            if len(q) != self.n:
                raise ContractError(f"frequency {q} does not have dimension {self.n}")
            if abs(c) > PRUNE_TOL:
                canon[q] = c
        object.__setattr__(self, "coeffs", canon)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "PeriodicFunction":
        return PeriodicFunction(n, {})

    @staticmethod
    def constant(n: int, value: complex) -> "PeriodicFunction":
        return PeriodicFunction(n, {(0,) * n: complex(value)})

    # -- basic queries ------------------------------------------------

    def get(self, q) -> complex:
        return self.coeffs.get(_as_index(q), 0.0 + 0.0j)

    def items(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def support_radius(self) -> float:
        """Largest Euclidean norm among stored frequencies (0 when empty)."""
        if not self.coeffs:
            return 0.0
        return math.sqrt(max(sum(c * c for c in q) for q in self.coeffs))

    @property
    def box_radius(self) -> int:
        """Largest sup-norm among stored frequencies (0 when empty)."""
        if not self.coeffs:
            return 0
        return max(max(abs(c) for c in q) for q in self.coeffs)

    def is_real_valued(self, rtol: float = HERMITIAN_RTOL) -> bool:
        """True when coefficients satisfy w(-q) == conj(w(q)) to within rtol."""
        scale = max(1.0, star_norm(self))
        for q, c in self.coeffs.items():
            mq = tuple(-s for s in q)
            if abs(self.coeffs.get(mq, 0.0) - c.conjugate()) > rtol * scale:
                return False
        return True

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        if self.n != other.n:
            raise ContractError("dimension mismatch in addition")
        out = dict(self.coeffs)
        for q, c in other.coeffs.items():
            out[q] = out.get(q, 0.0) + c
        return PeriodicFunction(self.n, out)

    def __sub__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "PeriodicFunction":
        return PeriodicFunction(self.n, {q: s * c for q, c in self.coeffs.items()})

    def conj(self) -> "PeriodicFunction":
        """Complex conjugate of the function: frequencies flip sign."""
        return PeriodicFunction(
            self.n, {tuple(-s for s in q): c.conjugate() for q, c in self.coeffs.items()}
        )

    def real_part(self) -> "PeriodicFunction":
        return (self + self.conj()).scale(0.5)


def star_norm(f: PeriodicFunction) -> float:
    """Sum of coefficient magnitudes (the Wiener-algebra norm)."""
    return math.fsum(abs(c) for _, c in f.coeffs.items())


def multiply(f: PeriodicFunction, g: PeriodicFunction) -> PeriodicFunction:
    """Pointwise product, computed as the exact convolution of coefficients."""
    if f.n != g.n:
        raise ContractError("dimension mismatch in multiply")
    out: Dict[LatticeIndex, complex] = {}
    for qa, ca in f.coeffs.items():
        for qb, cb in g.coeffs.items():
            q = tuple(a + b for a, b in zip(qa, qb))
            out[q] = out.get(q, 0.0) + ca * cb
    return PeriodicFunction(f.n, out)


def abs_squared(f: PeriodicFunction) -> PeriodicFunction:
    """|f|^2 as a periodic function; Hermitian-symmetric by construction."""
    return multiply(f, f.conj())


def zero_mean_shift(f: PeriodicFunction) -> Tuple[PeriodicFunction, float]:
    """Split off the mean: returns (f - w0, w0) with w0 the zero-frequency part.

    The mean of a real-valued function must be real; a complex mean beyond
    rounding dust is a contract violation.
    """
    q0 = (0,) * f.n
    w0 = f.coeffs.get(q0, 0.0 + 0.0j)
    if abs(w0.imag) > HERMITIAN_RTOL * max(1.0, star_norm(f)):
        raise ContractError(f"mean {w0} has a non-negligible imaginary part")
    shifted = {q: c for q, c in f.coeffs.items() if q != q0}
    return PeriodicFunction(f.n, shifted), float(w0.real)


def truncate_support(f: PeriodicFunction, radius: float) -> Tuple[PeriodicFunction, float]:
    """Drop coefficients with Euclidean frequency norm above ``radius``.

    Returns (truncated function, star norm of the dropped tail); the tail is
    reported so callers can log it rather than lose it silently.
    """
    if radius < 0:
        raise ContractError("truncation radius must be nonnegative")
    r2 = float(radius) * float(radius)
    kept: Dict[LatticeIndex, complex] = {}
    dropped = []
    for q, c in f.coeffs.items():
        if sum(s * s for s in q) <= r2:
            kept[q] = c
        else:
            dropped.append(abs(c))
    return PeriodicFunction(f.n, kept), math.fsum(dropped)


def distance(f: PeriodicFunction, g: PeriodicFunction) -> float:
    """star_norm(f - g); convenient for closeness assertions."""
    return star_norm(f - g)


# -- serialization ----------------------------------------------------

def to_json_dict(f: PeriodicFunction) -> Dict[str, list]:
    """Map ``"q1,q2,...,qn" -> [re, im]``; keys sorted for determinism."""
    return {
        ",".join(str(s) for s in q): [c.real, c.imag]
        for q, c in sorted(f.coeffs.items())
    }


def from_json_dict(d: Mapping[str, Iterable[float]], n: Optional[int] = None) -> PeriodicFunction:
    coeffs: Dict[LatticeIndex, complex] = {}
    for key, (re, im) in d.items():
        q = tuple(int(s) for s in key.split(","))
        coeffs[q] = complex(re, im)
        if n is None:
            n = len(q)
    if n is None:
        raise ContractError("cannot infer dimension from an empty map; pass n")
    return PeriodicFunction(n, coeffs)


# -- model context ----------------------------------------------------

@dataclass(frozen=True)
class ModelContext:
    """Immutable bundle of model parameters shared across all stages.

    ``V`` is the periodic potential (real-valued, zero mean), ``sigma`` the
    cubic coupling and ``A`` the amplitude of the unperturbed plane wave.
    ``delta``/``beta`` steer the admission thresholds, and the remaining
    fields are numerical controls with the documented defaults.
    """

    n: int
    l: int
    sigma: float
    A: complex
    V: PeriodicFunction
    delta: float = 0.05
    beta: float = 0.4
    M_lin: Optional[int] = None          # None: ceil(2k) at point of use
    M_W: Optional[float] = None          # None: (8 + r_max) * support_radius(V)
    r_max: int = 6
    N_q: int = 64
    tol_fp: Optional[float] = None       # None: 1e-12 * star_norm(V)
    tol_root: Optional[float] = None     # None: 1e-9 * target eigenvalue
    m_max: int = 50
    k0: float = 2.0
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
        if self.V.n != self.n:
            raise ConfigError("potential dimension does not match n")
        if (0,) * self.n in self.V.coeffs:
            raise ConfigError("potential must have zero mean (no zero-frequency coefficient)")
        if not self.V.is_real_valued():
            raise ConfigError("potential must be real-valued (Hermitian coefficients)")
        if self.r_max < 2:
            raise ConfigError("r_max must be >= 2")
        if self.N_q < 8:
            raise ConfigError("N_q must be >= 8")

    # -- derived quantities -------------------------------------------

    @property
    def v_star(self) -> float:
        return star_norm(self.V)

    @property
    def tol_fp_value(self) -> float:
        if self.tol_fp is not None:
            return self.tol_fp
        return 1e-12 * self.v_star

    def m_lin(self, k: float) -> int:
        return self.M_lin if self.M_lin is not None else int(math.ceil(2.0 * k))

    def m_w(self) -> float:
        if self.M_W is not None:
            return self.M_W
        return (8.0 + self.r_max) * self.V.support_radius

    def gamma0(self) -> float:
        return 2 * self.l - self.n - 2 * self.delta

    def check_smallness(self, k: float) -> None:
        """Enforce |sigma| |A|^2 < k^(gamma0 - delta) for the active k."""
        bound = k ** (self.gamma0() - self.delta)
        small = abs(self.sigma) * abs(self.A) ** 2
        if not small < bound:
            raise ConfigError(
                f"|sigma||A|^2 = {small:.6g} must stay below k^(gamma0-delta) = {bound:.6g}"
            )


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
