"""A fixed NumPy kernel that measures how fast the machine runs right now.

On a shared virtual machine the same solve can take 1.6 times longer in
one minute than in the next, because neighbours load the host.  The
benchmark times this kernel between consecutive solves; a solve's wall
time divided by the mean of the kernel times just before and after it,
times ``REFERENCE_S``, is the solve's time at the reference machine
speed.  Set-up times are scaled by a kernel run right after set-up.  All
times the benchmark reports in seconds are at this reference speed.

The kernel uses no bridgesim code, so no change to the library moves it.
Its work mirrors one chunk step of the simulator: small batched matrix
products, a batched Cholesky factorization and elementwise updates on a
(1024, 3) state.
"""
from __future__ import annotations

import os
import time

import numpy as np

# Kernel seconds at the reference speed.  Any fixed value serves, since
# commits are compared at the same reference; this one is about the
# median kernel time on a 2-vCPU KVM guest (Xeon, Python 3.11.7,
# numpy 2.4.6), so reference seconds read close to wall seconds there.
REFERENCE_S = 0.04

_STEPS = 150


def _inputs():
    rng = np.random.default_rng(20261017)
    x = rng.standard_normal((1024, 3))
    m = rng.standard_normal((3, 3))
    q = rng.standard_normal((1024, 3, 3))
    a = np.einsum("pij,pkj->pik", q, q) + 3.0 * np.eye(3)
    return x, m, a


_X, _M, _A = _inputs()


def kernel_seconds(cpus=None) -> float:
    """Wall time of one run of the fixed kernel, or with ``cpus`` the mean
    over one run pinned to each of those CPUs, for solves whose threads
    spread over them."""
    if cpus:
        home = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(kernel_seconds())
        finally:
            os.sched_setaffinity(0, home)
        return sum(times) / len(times)
    x = _X
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        y = x @ _M.T
        z = np.einsum("pij,pj->pi", _A, y)
        c = np.linalg.cholesky(_A)
        x = 0.5 * x + 0.01 * z + 0.1 * c[:, 0, :]
        x = np.where(np.isfinite(x).all(axis=1)[:, None], x, 0.0)
    return time.perf_counter() - t0
