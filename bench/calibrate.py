"""Machine-speed calibration.

On a shared machine the speed of a core drifts by tens of percent within
seconds, with other tenants on the same hardware; a pure-Python loop on the
2-vCPU box the baseline was recorded on ranged over 60 % between 5-second
windows.  That drift has nothing to do with the code under test and would
swamp most real differences, so the benchmark times a fixed kernel between
requests and scales each request's wall time by

    REFERENCE_S / (mean kernel time just before and just after it),

which gives seconds on a machine where the kernel takes REFERENCE_S.  The
kernel mixes what the workloads spend their time in: %.17g formatting and
interpreted loops (the CSV writer), complex element-wise numpy work (kernel
grids, evolution) and a complex matrix product (quadrature and transforms).
Raw wall times are reported beside the scaled ones.
"""

import time

import numpy as np

REFERENCE_S = 2e-3
REPEATS = 5

_X = np.linspace(-1.0, 1.0, 2048)
_Y = np.linspace(0.0, 1.0, 20000)
_A = np.exp(1j * np.outer(_X[:128], _X[:384]))
_B = np.exp(-1j * np.outer(_X[:384], _X[-128:]))


def kernel():
    z = np.exp(1j * _X) * _X
    "\n".join("%.17g,%.17g" % (v.real, v.imag) for v in z[:400].tolist())
    acc = 0
    for i in range(6000):
        acc += i * i
    w = np.exp(3j * _Y) * _Y
    return acc, w, _A @ _B


def measure():
    """Mean time of one kernel run over REPEATS runs, in seconds: like a
    request's own duration, an average over a stretch of machine time."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (time.perf_counter() - start) / REPEATS


def scaled(wall, kernel_s):
    """Wall time in reference-machine seconds, given the kernel time
    measured around it."""
    return wall * REFERENCE_S / kernel_s
