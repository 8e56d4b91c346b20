import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import spdhgr
from spdhgr.network import load_params

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_DRAW = """
import json, sys
import numpy as np
from spdhgr.network import NetworkConfig, forward, init_params, save_params
config = NetworkConfig(**json.loads(sys.argv[1]))
seed, out, pass_between = int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
save_params(out + ".0", init_params(config, seed))
if pass_between:
    coords = np.random.default_rng(0).standard_normal((config.n_frames, 20, 3))
    forward(coords, init_params(config, seed), config)
    save_params(out + ".1", init_params(config, seed))
"""


@pytest.fixture
def draw_in_subprocess(tmp_path):
    """``draw(config, seed, threads=None, pass_between=False)`` returns
    ``[init_params(config, seed)]`` drawn in a fresh interpreter, as
    `spdhgr train` draws it. ``threads`` sets OPENBLAS_NUM_THREADS; with
    ``pass_between`` the list also holds a second draw made after one
    network pass."""
    src = str(Path(spdhgr.__file__).resolve().parents[1])
    counter = itertools.count()

    def draw(config, seed, threads=None, pass_between=False):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        out = tmp_path / f"draw{next(counter)}"
        subprocess.run([sys.executable, "-c", _DRAW, json.dumps(dataclasses.asdict(config)),
                        str(seed), str(out), "1" if pass_between else "0"],
                       env=env, check=True, timeout=300)
        return [load_params(f"{out}.{k}", config) for k in range(1 + pass_between)]

    return draw


@pytest.fixture
def householder_calls(monkeypatch):
    """The shapes ``np.linalg.qr`` is called on from here on: the
    Householder fallback of ``qr_orthonormalize`` calls it, CholeskyQR2
    does not."""
    calls = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls
