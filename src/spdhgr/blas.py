"""Run numpy's OpenBLAS on one thread, and have glibc keep freed heap,
from the first network pass on.

A network pass is thousands of small products and eigendecompositions,
and it spreads its window tables over two threads of its own (`layers`).
A multi-threaded OpenBLAS only competes with them: its worker threads
spin on the other core after every threaded product. The first forward
pass therefore sets OpenBLAS to one thread for the rest of the process,
so network passes do not depend on ``OPENBLAS_NUM_THREADS``.
``network.init_params`` does not hold it: its QR would take about a
third less time on one thread, but for some weight shapes (210x420, not
200x3360) one thread gives another initial ``w_hat`` than two.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
which exports ``scipy_openblas_set_num_threads64_`` and
``scipy_openblas_get_num_threads64_``. Where they are absent (a numpy
built against another BLAS), BLAS is left alone.

A pass frees most of what it allocates before the next one starts. By
default glibc then hands the freed top of its heap back to the kernel,
and serves arrays of its dynamic mmap threshold (from 128 KiB) and up
from fresh mappings, so every pass faults the same pages in again: a
warm train pass over 30 paper-scale sequences took about 6,900 minor
faults, and fewer than 10 with the settings below. The first pass
therefore sets glibc's mmap threshold to `HEAP_MMAP_THRESHOLD` and its
trim threshold to `HEAP_TRIM_THRESHOLD`. Both are needed: setting the
trim threshold alone also turns off the dynamic mmap threshold, which
then stays at 128 KiB (mallopt(3)). Where glibc is absent, malloc is
left alone.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

_held = None  # None until the first pass has looked; then whether it set one thread
_heap_kept = None  # likewise for glibc's heap settings

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
HEAP_MMAP_THRESHOLD = 32 << 20  # arrays below this come from the heap
HEAP_TRIM_THRESHOLD = 128 << 20  # freed heap kept before any goes back


def _find_controls():
    """OpenBLAS's (get, set) thread-count functions, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def hold_one_thread() -> None:
    """Set OpenBLAS to one thread, once per process.

    Two first passes racing on threads both set one thread, which is harmless.
    """
    global _held
    if _held is None:
        controls = _find_controls()
        if controls is not None:
            controls[1](1)
        _held = controls is not None


def held() -> bool:
    """Whether a network pass has set OpenBLAS to one thread."""
    return bool(_held)


def _find_mallopt():
    """glibc's ``mallopt``, or None."""
    if os.name != "posix":
        return None
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only: the parameter numbers are its own
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def keep_heap() -> None:
    """Set glibc's mmap and trim thresholds, once per process."""
    global _heap_kept
    if _heap_kept is None:
        mallopt = _find_mallopt()
        if mallopt is not None:
            mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
            mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
        _heap_kept = mallopt is not None
