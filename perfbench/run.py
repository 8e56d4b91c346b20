"""spdhgr benchmark: train, extract and classify at paper scale.

    python3 perfbench/run.py --workload train|extract|classify --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``. Each run:

1. writes its seeded synthetic inputs (input set ``seed % 16``) in a
   child process, under ``.perfbench_work/`` in the checkout;
2. times the workload's set-up several times;
3. runs timed units back to back until ``--seconds`` have passed (at
   least one, two when traced), checking every unit's outputs against
   the seed commit's reference outputs;
4. prints one JSON line of run information, then the result line
   ``{"correct", "attempted", "failed", "metrics"}``.

Times are host-normalised (hostspeed.py): the host's speed is sampled
between program calls all through the run, and a phase's median wall
time is scaled by the median speed sampled during that phase, giving
seconds at the reference speed (``hostspeed.REFERENCE_S``). Raw wall
times are kept in the run information.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every second unit runs under the tracer and the metrics are the
per-layer ones, with the tracer's overhead against the untraced units.
``--smoke`` runs a tiny configuration for the harness's own tests.

Exit codes: 0 after a result is printed (check ``correct``), 2 when the
program cannot be imported or the inputs cannot be made.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from inputs import POOL_SIZE, SCALES, WORKLOADS, pool_index  # noqa: E402

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "spdhgr" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'spdhgr'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    try:
        import spdhgr
    except ImportError as exc:
        raise BenchError(f"cannot import spdhgr from {SRC}: {exc}") from exc
    return spdhgr


def run_child(args: list[str], what: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


# ---------------------------------------------------------------------------
# environment record


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_revision() -> dict:
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "spdhgr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def environment(spdhgr) -> dict:
    return {
        **source_revision(),
        "spdhgr": getattr(spdhgr, "__version__", None),
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


def median(values):
    return float(statistics.median(values))


def run_benchmark(args, spdhgr) -> tuple[dict, dict]:
    from probes import PER_LAYER_METRICS, PROBES, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOAD_TYPES, load_reference

    scale = SCALES["smoke" if args.smoke else "paper"]
    pool = pool_index(args.seed)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    info = {"workload": args.workload, "seed": args.seed, "input_set": pool,
            "input_sets": POOL_SIZE, "scale": scale.name, "sizes": scale.sizes(),
            "trace": args.trace, "seconds": args.seconds, **environment(spdhgr)}
    try:
        t0 = time.perf_counter()
        run_child([str(BENCH_DIR / "inputs.py"), args.workload, scale.name, str(pool),
                   str(workdir)], "input generation")
        info["input_generation_s"] = time.perf_counter() - t0

        workload = WORKLOAD_TYPES[args.workload](
            scale=scale, workdir=workdir, pool=pool, reference=load_reference(scale, args.workload))
        info["item"] = workload.item
        info["items_per_unit"] = workload.items_per_unit
        tracer = Tracer(PROBES).install() if args.trace else None
        try:
            with HostSpeed.start(workload.host_kernel) as host:
                clock = Clock(host)
                # a pause inside a traced span would count as that span's
                # time, so the traced run measures the host between calls only
                points = () if args.trace else workload.pause_points
                with pause_points(points, clock) as absent:
                    m = _measure(args, workload, tracer, clock)
                info["pause_points_absent"] = absent
        finally:
            if tracer is not None:
                tracer.remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # other runs still use it

    items = workload.items_per_unit
    # timed metrics are in seconds at the reference host speed
    reference_s = REFERENCE_S[workload.host_kernel]
    setup_scale = reference_s / median(m.setup_host_s)
    unit_scale = reference_s / median(m.unit_host_s)
    info["samples"] = {"units": len(m.unit_s), "traced_units": len(m.traced_s),
                       "setups": len(m.setup_s), "setup_host_speed": len(m.setup_host_s),
                       "unit_host_speed": len(m.unit_host_s)}
    info["unit_wall_s"] = m.unit_s
    info["traced_unit_wall_s"] = m.traced_s
    info["setup_wall_s"] = m.setup_s
    info["host_kernel_s"] = {"kind": workload.host_kernel, "setup_median": median(m.setup_host_s),
                             "unit_median": median(m.unit_host_s),
                             "min": min(m.unit_host_s), "max": max(m.unit_host_s)}
    info["openblas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")

    if not args.trace:
        unit_s = median(m.unit_s) * unit_scale
        # the issue's names for the same measurement, per workload
        info["derived"] = {"train": {"train_seq_per_s": items / unit_s},
                           "extract": {"extract_seq_per_s": items / unit_s},
                           "classify": {"classify_s": unit_s}}[workload.name]
        metrics = {
            "unit_s": (unit_s, "s"),
            "setup_s": (median(m.setup_s) * setup_scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - m.failed / m.attempted, "frac"),
        }
    else:
        # traced and untraced units alternate, so the host's speed cancels
        overhead = median(m.traced_s) / median(m.unit_s) - 1.0
        traced_wall = sum(m.traced_s)
        values, samples = layer_metrics(tracer, traced_units=len(m.traced_s),
                                        items_per_unit=items, setups=len(m.setup_s),
                                        traced_wall_s=traced_wall, overhead_frac=overhead)
        units = dict((name, unit) for name, unit, _ in PER_LAYER_METRICS)
        metrics = {name: (values[name], units[name]) for name, _, _ in PER_LAYER_METRICS}
        info["tracing"] = {
            "absent": tracer.absent,
            "spans": len(tracer.spans),
            "layer_samples": samples,
            # overhead_frac compares the medians of these two samples
            "overhead_samples": {"traced": len(m.traced_s), "untraced": len(m.unit_s)},
            "traced_wall_s": traced_wall,
            "layer_self_s": traced_wall * (1.0 - values["trace.unaccounted_frac"]),
            "unaccounted_within_overhead": (
                abs(values["trace.unaccounted_frac"]) <= max(overhead, 0.0)),
        }
    result_line = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return info, result_line


class Clock:
    """Times program calls and samples the host's speed between them.

    The reference kernel runs after every call and at the pause points
    inside a call; its own time is not counted in the call's.
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.host_s = [host.measure()]
        self._paused_s = None  # None outside a call

    def call(self, fn):
        """(result, wall seconds) of ``fn()``."""
        self._paused_s = 0.0
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0 - self._paused_s
            self._paused_s = None
            self.host_s.append(self.host.measure())
        return result, wall

    def pause(self) -> None:
        """Sample the host's speed now, inside a call."""
        if self._paused_s is not None:
            t0 = time.perf_counter()
            self.host_s.append(self.host.measure())
            self._paused_s += time.perf_counter() - t0


@contextlib.contextmanager
def pause_points(points, clock: Clock):
    """Make the program call ``clock.pause()`` before every n-th call of each
    (module, attribute, n); a point whose name is gone is skipped and listed."""
    installed, absent = [], []
    for module_name, attr, every in points:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(f"{module_name}.{attr}")
            continue

        def paused(*args, _fn=original, _every=every, _calls=itertools.count(), **kwargs):
            if next(_calls) % _every == 0:
                clock.pause()
            return _fn(*args, **kwargs)

        setattr(module, attr, paused)
        installed.append((module, attr, original))
    try:
        yield absent
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


@dataclass
class Measurement:
    setup_s: list = field(default_factory=list)  # wall times
    unit_s: list = field(default_factory=list)  # untraced units
    traced_s: list = field(default_factory=list)
    setup_host_s: list = field(default_factory=list)  # kernel times per phase
    unit_host_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _measure(args, workload, tracer, clock: Clock) -> Measurement:
    m = Measurement()
    for _ in range(workload.scale.setup_reps):
        if tracer is not None:
            tracer.start("setup")
        _, wall = clock.call(workload.setup)
        if tracer is not None:
            tracer.stop()
        m.setup_s.append(wall)
    m.setup_host_s = list(clock.host_s)
    first = len(clock.host_s) - 1  # the sample right before the first unit

    # a traced run needs a traced and an untraced unit
    min_units = 2 if tracer is not None else 1
    t_begin = time.perf_counter()
    k = 0
    while k < min_units or time.perf_counter() - t_begin < args.seconds:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.start("unit")
        error = output = None
        wall = 0.0
        try:
            for step in workload.steps():
                output, step_wall = clock.call(step)
                wall += step_wall
        except Exception:  # a failed unit counts all its operations as failed
            error = traceback.format_exc()
        if traced:
            tracer.stop()
        (m.traced_s if traced else m.unit_s).append(wall)
        failed = workload.items_per_unit
        if error is None:
            try:
                failed = workload.check(output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"unit {k} failed:\n{error}", file=sys.stderr)
        m.attempted += workload.items_per_unit
        m.failed += failed
        k += 1
    m.unit_host_s = clock.host_s[first:]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spdhgr = import_program()
        info, result = run_benchmark(args, spdhgr)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
