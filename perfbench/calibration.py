"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few virtual cores of a shared host, whose speed
for the same single-threaded study drifts by tens of percent within
minutes as other tenants come and go: on a 2-vCPU Intel Xeon 2.1 GHz VM,
stokes-L5 studies of the same code read from 6.3 s to 13.0 s within two
hours, and the medians of 10 runs in a row spread 22% between their
quartiles.  Medians over a run cannot remove a drift that slow, so the
end-to-end timings are rescaled by the speed of the machine measured
right around each study:

    scaled = measured * REFERENCE_S / calibration

where ``calibration`` is the mean of the kernel's times just before and
just after the study and ``REFERENCE_S`` its typical time on that VM, so
a scaled time reads as seconds at that machine's typical speed.  The
kernel is fixed scipy work that does not touch mixpar, so a change to
mixpar moves the measured time and not the calibration, and shows in full
in the scaled time.

The kernel is a sparse LU factorization of a 3-D Laplacian, timed five
times; its time is the median, which a single stall of the host does not
move.  Of the kernels tried beside it (triangular solves, dense
SVD/eigh/Cholesky/matmul, small numpy calls from a Python loop, formatted
text writes), it tracked the drift of both workloads best: over 20
stokes-L5 and 35 eddy-canonical studies back to back, a study's time
divided by it varied by 3.4% and 5.0% (standard deviation of the
logarithm), and unscaled by 7.2% and 7.8%.
"""
from __future__ import annotations

import statistics
import time

# typical kernel time on the 2-vCPU Intel Xeon 2.1 GHz VM of baselines.json
REFERENCE_S = 0.35
REPEATS = 5


class Calibration:
    """The calibration kernel with its matrix built once."""

    def __init__(self):
        import scipy.sparse as sp

        m = 20      # 8000 unknowns, 3.7M entries in L+U
        eye = sp.identity(m, format="csr")
        tri = sp.diags([-1.0, 6.0, -1.0], [-1, 0, 1], shape=(m, m))
        off = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
        self.matrix = (sp.kron(sp.kron(eye, eye), tri)
                       + sp.kron(sp.kron(eye, off), eye)
                       + sp.kron(sp.kron(off, eye), eye)).tocsc()
        self.time()     # warm up: the first call loads code and fills caches

    def time(self):
        """Median wall time of one factorization over REPEATS, in seconds."""
        from scipy.sparse.linalg import splu

        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            splu(self.matrix)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
