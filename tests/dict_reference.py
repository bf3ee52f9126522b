"""Reference copy of the dict-backed Fourier arithmetic the box layout replaced.

Frequencies are int tuples mapped to complex amplitudes, canonicalized by
sorting and pruning at ``PRUNE_TOL``; products loop over every pair of
stored coefficients.  The differential tests in ``test_lattice.py`` hold the
box-backed ``polywave.lattice`` to exact agreement with this code.
"""

import math

from polywave.lattice import HERMITIAN_RTOL, PRUNE_TOL


class DictFunction:
    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = {}
        for q, c in sorted((tuple(q), complex(c)) for q, c in coeffs.items()):
            if abs(c) > PRUNE_TOL:
                self.coeffs[q] = c

    def is_real_valued(self, rtol=HERMITIAN_RTOL):
        scale = max(1.0, star_norm(self))
        for q, c in self.coeffs.items():
            mq = tuple(-s for s in q)
            if abs(self.coeffs.get(mq, 0.0) - c.conjugate()) > rtol * scale:
                return False
        return True

    def __add__(self, other):
        out = dict(self.coeffs)
        for q, c in other.coeffs.items():
            out[q] = out.get(q, 0.0) + c
        return DictFunction(self.n, out)

    def scale(self, s):
        return DictFunction(self.n, {q: s * c for q, c in self.coeffs.items()})

    def conj(self):
        return DictFunction(
            self.n, {tuple(-s for s in q): c.conjugate() for q, c in self.coeffs.items()}
        )


def star_norm(f):
    return math.fsum(abs(c) for _, c in f.coeffs.items())


def multiply(f, g):
    out = {}
    for qa, ca in f.coeffs.items():
        for qb, cb in g.coeffs.items():
            q = tuple(a + b for a, b in zip(qa, qb))
            out[q] = out.get(q, 0.0) + ca * cb
    return DictFunction(f.n, out)


def abs_squared(f):
    return multiply(f, f.conj())


def zero_mean_shift(f):
    q0 = (0,) * f.n
    w0 = f.coeffs.get(q0, 0.0 + 0.0j)
    shifted = {q: c for q, c in f.coeffs.items() if q != q0}
    return DictFunction(f.n, shifted), float(w0.real)


def truncate_support(f, radius):
    r2 = float(radius) * float(radius)
    kept = {}
    dropped = []
    for q, c in f.coeffs.items():
        if sum(s * s for s in q) <= r2:
            kept[q] = c
        else:
            dropped.append(abs(c))
    return DictFunction(f.n, kept), math.fsum(dropped)


def to_json_dict(f):
    return {
        ",".join(str(s) for s in q): [c.real, c.imag]
        for q, c in sorted(f.coeffs.items())
    }
