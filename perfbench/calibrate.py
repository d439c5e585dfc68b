"""Host-speed calibration: two fixed kernels timed between the measured calls.

The host this benchmark runs on is shared, and its single-thread speed drifts
by up to a factor of 1.8 over minutes, for every process alike. A run of the
benchmark cannot outlast that drift, so each wall time is rescaled to a
reference host speed instead:

    rescaled seconds = wall seconds * speed factor
    speed factor = sqrt((PY_REF_S / py) * (NP_REF_S / np))

where ``py`` and ``np`` are the times of a fixed pure-Python kernel and a
fixed dense-SVD kernel measured next to the call, and the REF constants are
their best times on the reference host. Neither kernel touches seqforms, so
a change to the program moves the rescaled figures by the same share as the
wall times; only the host's drift is taken out. Pure-Python code and numpy
code slow down by different factors when the host does, so the factor is the
geometric mean of both kernels' ratios.

A set-up time is mostly process start-up and imports, which neither kernel
resembles, so it is rescaled by a third kernel instead: a fresh interpreter
that imports numpy and scipy.linalg, timed just before the cold start.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# Bound before any tracer wraps numpy.linalg, so the kernel is never traced.
_svd = np.linalg.svd

# Best kernel times on the reference host (2-vCPU VM, Python 3.11.7, numpy
# 2.4.6, one BLAS thread), i.e. in its fast mode; they only fix the scale of
# the rescaled figures, which read as seconds on that host at full speed.
PY_REF_S = 0.0040
NP_REF_S = 0.0031
COLD_REF_S = 0.33

COLD_START = ("-c", "import argparse, json, numpy, scipy.linalg")

_MATRIX = np.random.default_rng(12345).standard_normal((128, 128))

# Calibration samples around a call whose medians give its factor.
WINDOW = 7


def _py_kernel():
    acc, table = 0.0, {}
    for i in range(30000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    return acc


def sample():
    """One calibration sample: (pure-Python seconds, SVD seconds)."""
    t0 = time.perf_counter()
    _py_kernel()
    t1 = time.perf_counter()
    _svd(_MATRIX)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def cold_start(timeout):
    """Wall seconds of the cold-start kernel; its speed factor is
    COLD_REF_S over that."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *COLD_START], check=True, timeout=timeout)
    return time.perf_counter() - t0


def median_factor(samples):
    """Speed factor from the medians of several (py, np) samples."""
    py = statistics.median(s[0] for s in samples)
    np_ = statistics.median(s[1] for s in samples)
    return math.sqrt((PY_REF_S / py) * (NP_REF_S / np_))


def local_factors(samples):
    """Factor for each sample position, from the medians of the WINDOW
    samples centred on it (shifted inwards at the ends), so that one
    disturbed kernel run does not rescale a call but a drift lasting
    seconds does."""
    n = len(samples)
    out = []
    for i in range(n):
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        out.append(median_factor(samples[lo:lo + WINDOW]))
    return out
