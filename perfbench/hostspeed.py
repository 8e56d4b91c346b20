"""Host speed probe: a fixed reference kernel, timed in its own process.

The benchmark's machine is shared, and its speed drifts by tens of
percent over seconds to minutes (a fixed kernel ran anywhere from 28 to
42 ms on the 2-core VM the benchmark was tuned on, with no CPU steal
recorded). The runner samples the host's speed between program calls
all through a run and scales each phase's median wall time by the
median speed sampled during it, so that drift between runs cancels and
a change of the program does not.

Two kernels do the kinds of work the workloads do: ``network`` a
pure-Python loop, 56x56 symmetric eigendecompositions and 200x3360 BLAS
products; ``svm`` float parsing of text and dot/axpy sweeps over a 28 MB
matrix. Neither calls the program, and they run in a child process with
one BLAS thread, so nothing the program does to its own process
(threads, allocator state, BLAS settings) changes them.

    probe = HostSpeed.start("network"); probe.measure() -> seconds; probe.close()
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Calibration repetitions per measurement; the measurement is their median.
REPS = 3


def _kernel_state():
    rng = np.random.default_rng(20190429)
    a = rng.standard_normal((56, 56))
    text = " ".join(f"{v:.17g}" for v in rng.standard_normal(8000))
    return {
        "spd": a @ a.T + 56.0 * np.eye(56),
        "wide": rng.standard_normal((200, 3360)),
        "rows": rng.standard_normal((180, 20100)),
        "w": np.zeros(20100),
        "text": text,
    }


def network_kernel(state) -> None:
    """The network layers' kind of work: Python, small eigh, BLAS products."""
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    for _ in range(8):
        np.linalg.eigh(state["spd"])
    wide = state["wide"]
    for _ in range(2):
        wide @ wide.T


def svm_kernel(state) -> None:
    """The SVM's kind of work: parsing floats, dot/axpy sweeps over rows."""
    np.array([float(tok) for tok in state["text"].split()])
    rows, w = state["rows"], state["w"]
    for row in rows:
        w += 1e-12 * (w @ row) * row


KERNELS = {"network": network_kernel, "svm": svm_kernel}

# Each kernel's time at the reference speed: about its time on the 2-core
# VM the benchmark was tuned on, when that was quiet.
REFERENCE_S = {"network": 0.012, "svm": 0.012}


def _serve(kind: str) -> None:
    """Child loop: for each request line, print the median kernel time."""
    kernel, state = KERNELS[kind], _kernel_state()
    kernel(state)  # warm caches and allocations
    for line in sys.stdin:
        if not line.strip():
            break
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel(state)
            times.append(time.perf_counter() - t0)
        print(repr(statistics.median(times)), flush=True)


class HostSpeed:
    def __init__(self, proc: subprocess.Popen):
        self._proc = proc

    @classmethod
    def start(cls, kind: str) -> "HostSpeed":
        # one BLAS thread: no helper threads left spinning against the program
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.Popen([sys.executable, __file__, kind], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, env=env)
        return cls(proc)

    def measure(self) -> float:
        """Median time of the reference kernel, measured now."""
        self._proc.stdin.write("x\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host speed probe exited")
        return float(line)

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
                self._proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve(sys.argv[1])
