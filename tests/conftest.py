"""Shared fixtures: model contexts and the stored non-resonant desk points."""

import json
import math
from pathlib import Path

import pytest

from polywave.lattice import ModelContext, cosine_potential

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Canonical two-mode potential V = 2 cos x1 + 2 cos x2 used by every desk run.
STANDARD_AMPS = (1.0, 1.0)

# Weak-coupling working point |sigma| |A|^2 = 1e-3 shared by the desk cases.
COUPLING = 1e-3


def make_context(l, delta, sigma=0.0, amp2=0.0, **overrides):
    """Planar context with the standard potential; amp2 is |A|^2."""
    return ModelContext(
        n=2,
        l=l,
        sigma=sigma,
        A=math.sqrt(amp2),
        V=cosine_potential(2, STANDARD_AMPS),
        delta=delta,
        **overrides,
    )


@pytest.fixture(scope="session")
def desk_points():
    with open(FIXTURE_DIR / "desk_points.json") as fh:
        return json.load(fh)


def context_for(point, nonlinear):
    """Rebuild the context a stored desk point was verified under."""
    sigma = 1.0 if nonlinear else 0.0
    amp2 = COUPLING if nonlinear else 0.0
    return make_context(point["l"], point["delta"], sigma=sigma, amp2=amp2)


@pytest.fixture(scope="session")
def ctx_l3_lin():
    return make_context(3, 0.05)


@pytest.fixture(scope="session")
def ctx_l3_nl():
    return make_context(3, 0.05, sigma=1.0, amp2=COUPLING)


@pytest.fixture(scope="session")
def ctx_l1_lin():
    return make_context(1, 0.25)


@pytest.fixture(scope="session")
def ctx_l1_nl():
    return make_context(1, 0.25, sigma=1.0, amp2=COUPLING)


@pytest.fixture
def eigensolves(monkeypatch):
    """The ``k`` of every ``scipy.sparse.linalg.eigsh`` call, in call order."""
    import scipy.sparse.linalg

    calls = []

    def spy(*args, _eigsh=scipy.sparse.linalg.eigsh, **kwargs):
        calls.append(kwargs["k"])
        return _eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


@pytest.fixture
def eigsh_work(monkeypatch):
    """``(tol, applications)`` of every ``scipy.sparse.linalg.eigsh`` call, in
    call order: the accuracy it was asked for and how many times it applied
    its ``OPinv``."""
    import scipy.sparse.linalg

    calls = []

    def spy(*args, _eigsh=scipy.sparse.linalg.eigsh, **kwargs):
        inverse, applications = kwargs["OPinv"], [0]

        def counted(b):
            applications[0] += 1
            return inverse.matvec(b)

        kwargs["OPinv"] = scipy.sparse.linalg.LinearOperator(
            inverse.shape, matvec=counted, dtype=inverse.dtype
        )
        try:
            return _eigsh(*args, **kwargs)
        finally:
            calls.append((kwargs.get("tol", 0), applications[0]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


@pytest.fixture
def factorisations(monkeypatch):
    """``"splu"`` for every sparse LU factorisation the oracle runs."""
    import scipy.sparse.linalg

    calls = []

    def spy(*args, _splu=scipy.sparse.linalg.splu, **kwargs):
        calls.append("splu")
        return _splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return calls
