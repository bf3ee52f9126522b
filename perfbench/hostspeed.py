"""Host-speed probe, for timings that do not drift with the host.

A shared virtual machine changes speed by tens of percent from one minute
to the next, and often several times within one op, as other tenants load
the physical cores.  Interpreter-bound code slows most; vectorised numpy
code less.  While the benchmark sets up and times its ops, an interval
timer therefore interrupts it every ``PERIOD_S`` seconds and runs a short,
fixed reference kernel in the signal handler.  An op's normalised time is
its own time (the probes' time taken out) scaled by the mean of
``nominal / probe`` over the probes that ran during it: the time the op
would have taken had the host run the reference kernel at its nominal
speed throughout.  The kernels are independent of ``polywave``, so a change
to the package cannot move them.

Two kernels match the two kinds of work in the package:

* ``python``: convolution of two small coefficient dicts keyed by integer
  tuples, the interpreter work of ``lattice.multiply`` and the chain
  engine's Python loops;
* ``numpy``: element-wise work on a 3-d grid plus a small symmetric
  eigen-solve, the array work of the admission screen.

Python runs a signal handler between bytecodes, so a probe that falls due
inside a long C call (a dense eigen-solve, say) runs when the call returns.
The nominal times are fixed constants (about the kernels' median on the
2-vCPU Xeon VM the benchmark was written on); they set the scale of the
normalised figures and must not change, or earlier figures stop being
comparable.
"""

import signal
import statistics
import time

PERIOD_S = 0.1
NOMINAL_S = {"python": 0.002, "numpy": 0.004}


def _python_operands():
    coeffs = {}
    for a in range(-5, 6):
        for b in range(-5, 6):
            if a * a + b * b <= 26:
                coeffs[(a, b)] = complex((3 * a - b) % 7 - 3, (a + 2 * b) % 5 - 2)
    return list(coeffs.items())


def _numpy_operands():
    import numpy as np  # here, so that the probe can time the numpy import

    rng = np.random.default_rng(0)
    sym = rng.standard_normal((120, 120))
    return np, sym + sym.T, rng.standard_normal((50, 50, 50))


class HostSpeed:
    """Periodic reference-kernel probe; turns raw times into normalised ones.

    ``mark()`` snapshots the probe record; ``normalise(a, b, elapsed)``
    turns the raw ``elapsed`` seconds between marks ``a`` and ``b`` into
    (own seconds, normalised seconds).
    """

    def __init__(self, kind):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self.samples = []       # probe kernel times, in order
        self.probe_s = 0.0      # total time spent in the handler
        self._previous = None
        if kind == "python":
            self._items = _python_operands()
            self._kernel = self._python_kernel
        else:
            self._np, self._sym, self._grid = _numpy_operands()
            self._kernel = self._numpy_kernel

    def _python_kernel(self):
        out = {}
        for qa, ca in self._items:
            for qb, cb in self._items:
                q = (qa[0] + qb[0], qa[1] + qb[1])
                out[q] = out.get(q, 0.0) + ca * cb
        return out

    def _numpy_kernel(self):
        np = self._np
        np.linalg.eigh(self._sym)
        for _ in range(2):
            np.abs(np.abs(self._grid * 1.3) - 0.5).sum()

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.probe_s += time.perf_counter() - t0

    def start(self):
        """Take one probe now, then one every ``PERIOD_S`` seconds."""
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        return len(self.samples), self.probe_s

    def normalise(self, a, b, elapsed):
        """(own, normalised) seconds of a stretch that took ``elapsed`` raw
        seconds between marks ``a`` and ``b``: the probes' time is taken
        out, and the rest is scaled by the mean of ``nominal / probe`` over
        the probes that ran in the stretch.  A stretch shorter than the
        probe period may hold no probe; it takes the last one before it."""
        own = elapsed - (b[1] - a[1])
        during = self.samples[a[0]:b[0]] or self.samples[max(a[0] - 1, 0):a[0] or 1]
        return own, own * statistics.fmean(self.nominal / s for s in during)
