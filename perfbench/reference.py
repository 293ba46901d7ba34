"""Fixed reference kernels that gauge the speed of the machine.

On a shared VM the CPU time of the same work changes by up to 2x over
seconds to minutes: the host's other tenants contend for caches, cores and
clock speed, and no setting inside the VM removes that.  The benchmark
therefore runs a kernel right before and right after every block of ops and
reports the block's CPU time rescaled to the speed at which the kernel takes
REF_CPU_S:

    ref time = CPU time * REF_CPU_S / (kernel CPU time around the block)

Contention slows different kinds of work by different amounts, so each
workload names the kernel that does its kind of work:

- "linalg": eigh, svd and products of small complex Hermitian matrices through
  numpy, with Python-level bookkeeping, as in sweep, analyses and dilation;
- "stream": draws, searches and counts over arrays of 250,000 numbers, as in
  mc's vectorised sampling.

Each kernel runs on fixed inputs and imports nothing from weaklab, so a
change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel CPU time that defines reference speed; about each kernel's
#: time on a 2-vCPU Xeon VM (OpenBLAS 0.3.31, numpy 2.4)
REF_CPU_S = 0.025

_rng = np.random.default_rng(20120225)
_MATRICES = []
for _n in (2, 3, 4, 5, 6):
    for _ in range(6):
        _a = _rng.normal(size=(_n, _n)) + 1j * _rng.normal(size=(_n, _n))
        _MATRICES.append(_a + _a.conj().T)
_CDF = np.cumsum(_rng.random(64))
_CDF /= _CDF[-1]


def _linalg() -> float:
    acc = 0.0
    for _ in range(8):
        table: dict[tuple[int, int], int] = {}
        for m in _MATRICES:
            w, v = np.linalg.eigh(m)
            _, s, _ = np.linalg.svd(m)
            p = (v * np.where(abs(w) > 1e-9, 1 / w, 0)) @ v.conj().T
            acc += float(np.trace(p @ m).real) + float(s.sum())
            for i in range(30):
                table[(i, len(m))] = table.get((i, len(m)), 0) + i
            acc += len(repr(w.round(3).tolist()))
    return acc


def _stream() -> float:
    u = np.random.Generator(np.random.Philox(11)).random(250_000)
    counts = np.bincount(np.searchsorted(_CDF, u), minlength=len(_CDF))
    return float((u * u).sum()) + float(counts[0])


KERNELS = {"linalg": _linalg, "stream": _stream}


def measure(kind: str) -> float:
    """CPU seconds of one run of the named kernel."""
    kernel = KERNELS[kind]
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0
