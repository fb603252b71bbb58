"""Host-speed reference: fixed kernels timed all through every measured child.

The benchmark runs on a few cores of a shared host whose speed for the same
process switches between a fast and a slow phase (about 1.3-2x apart, lasting
seconds), as other tenants come and go.  Raw wall times of cold
``gain-sweep`` runs vary by 12-16% (coefficient of variation) within minutes,
and their medians drift between sets of runs.  A kernel timed in the parent
between runs does not follow this: the child runs at other moments, maybe on
the other core.

So each child times a fixed kernel in its own process, at the same moments
as the measured work: a ``SIGALRM`` handler samples it every ``interval`` of
wall time (the handler runs between bytecodes of the interrupted code).  For
the work rate ``s(t)``, the work done is the time integral of ``s``, so the
work is the wall time times the *time average of speed*, which evenly spaced
samples of ``nominal / kernel seconds`` estimate.  ``scaled`` turns a
measured wall time into the seconds the same work takes at nominal speed,
after removing the kernel's own seconds.

Two kernels, neither of which changes when qscissor does:

- ``numpy_kernel`` samples ``cli.main``: a frozen copy of the seed's Ryser
  permanent loop and a batched numpy gather, the two kinds of time qscissor
  spends.
- ``python_kernel`` samples the import, before numpy is loaded: Ryser's
  permanent in plain Python on a 4x4 matrix.

perfbench/README.md gives the variation with and without the scaling.
"""

from __future__ import annotations

import signal
import time

#: seconds of one warm kernel call that count as nominal speed.  They only
#: set the unit, chosen so that scaled times come out close to the wall
#: times of the fast phase of the host the baseline was recorded on (Intel
#: Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
NUMPY_NOMINAL_S = 2.2e-4
PYTHON_NOMINAL_S = 3.5e-5
#: wall seconds between samples: about 1-2% of the sampled time each
RUN_INTERVAL_S = 0.025
IMPORT_INTERVAL_S = 0.004

_PY_MATRIX = [[complex(i + 1, j - 1) / 7 for j in range(4)] for i in range(4)]
_np_arrays = None


def python_kernel() -> complex:
    """Permanent of a fixed 4x4 matrix by Ryser's formula, in plain Python."""
    total = 0j
    for subset in range(1, 16):
        prod = 1 + 0j
        for row in _PY_MATRIX:
            s = 0j
            for j in range(4):
                if subset >> j & 1:
                    s += row[j]
            prod *= s
        total += -prod if bin(subset).count("1") & 1 else prod
    return total


def _numpy_arrays():
    global _np_arrays
    if _np_arrays is None:
        import numpy as np

        rng = np.random.default_rng(20250520)
        matrix = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / 3
        amp = rng.standard_normal((64, 84)) + 1j * rng.standard_normal((64, 84))
        _np_arrays = matrix, amp, rng.integers(0, 84, size=60), rng.standard_normal(60)
    return _np_arrays


def numpy_kernel() -> complex:
    """A Ryser permanent loop and a batched gather, on fixed arrays.

    The permanent is a frozen copy of the seed's ``circuit.permanent`` on a
    5x5 matrix: interpreter-bound, with small numpy calls.  The gather
    scales and squares selected columns of a 64x84 complex batch, as the
    vectorized loss model does.  Between them they cover both kinds of time
    qscissor spends; the permanent alone tracked ``sobol`` half as well.
    """
    import numpy as np

    a, amp, columns, factors = _numpy_arrays()
    n = a.shape[0]
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = gray ^ new_gray
        idx = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += a[:, idx]
        else:
            row_sums -= a[:, idx]
        gray = new_gray
        parity = -1 if (new_gray.bit_count() & 1) else 1
        total += parity * np.prod(row_sums)
    out = np.zeros(amp.shape, dtype=complex)
    out[:, columns] = amp[:, columns] * factors
    return complex(-total) + float((np.abs(out) ** 2).sum(axis=1).sum())


class Sampler:
    """Times ``kernel`` every ``interval_s`` seconds of wall time while started.

    Each sample calls the kernel twice and times only the second call.  The
    first call refills the caches the interrupted code evicted: timed cold,
    the kernel ran 1.5x slower inside ``sobol`` than inside ``gain-sweep``
    at the same host speed, so the scale would depend on the program.
    """

    def __init__(self, kernel, nominal_s: float, interval_s: float) -> None:
        self.kernel, self.nominal_s, self.interval_s = kernel, nominal_s, interval_s
        self.samples: list[float] = []  # seconds of the timed calls
        self.spent_s = 0.0  # seconds of both calls, inside the sampled work
        kernel()  # first-call costs stay out of the samples

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel()
        warm = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        if signum is not None:
            self.spent_s += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # the work was shorter than one interval
            self._sample()

    def speed(self) -> float:
        """Time-averaged host speed relative to nominal (1.0 = nominal)."""
        return sum(self.nominal_s / s for s in self.samples) / len(self.samples)

    def report(self) -> dict:
        return {"speed": self.speed(), "kernel_s": self.spent_s, "samples": len(self.samples)}


def scaled(wall_s: float, kernel_s: float, speed: float) -> float:
    """Seconds the measured work takes at nominal host speed."""
    return (wall_s - kernel_s) * speed
