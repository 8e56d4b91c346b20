"""Run numpy's OpenBLAS on one thread from the first weight draw or
network pass on.

A network pass is thousands of small products and eigendecompositions,
and it spreads its window tables over two threads of its own (`layers`).
A multi-threaded OpenBLAS only competes with them: its worker threads
spin on the other core after every threaded product. The first forward
pass therefore sets OpenBLAS to one thread for the rest of the process,
so network passes do not depend on ``OPENBLAS_NUM_THREADS``.
``network.init_params`` sets it too, before it draws: the CholeskyQR2
behind the initial ``w_hat`` gives other bits on two threads than on one
for many weight shapes, 200x3360 among them, so holding one thread makes
the initial weights independent of the thread count and the core count.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
which exports ``scipy_openblas_set_num_threads64_`` and
``scipy_openblas_get_num_threads64_``. Where they are absent (a numpy
built against another BLAS), BLAS is left alone.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

_held = None  # None until the first pass has looked; then whether it set one thread


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
    """Set OpenBLAS to one thread, once per process."""
    global _held
    if _held is None:
        controls = _find_controls()
        if controls is not None:
            controls[1](1)
        _held = controls is not None


def held() -> bool:
    """Whether a weight draw or network pass has set OpenBLAS to one thread."""
    return bool(_held)
