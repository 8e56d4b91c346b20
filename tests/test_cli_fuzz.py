"""The command line under mutated sequence files.

Each example mutates one sequence file of a tiny synthetic set and runs
``train`` and ``extract`` on it in-process, with numpy's RuntimeWarnings
raised as errors. Each run must exit 0, or exit 2 with the file's
relative path in stderr exactly once and no traceback.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdhgr.cli import main
from spdhgr.network import NetworkConfig, save_config
from spdhgr.skeleton import write_synthetic_dataset

TINY = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=8, n_frames=12, t0=1, n_chunks=2)
TARGET = "sequences/train_c0_01.txt"
TOKENS = ["x", "nan", "inf", "1e400", "1.0", "1_0", "#"]


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """A tiny set whose files have the config's frame count, its config
    file and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    data = root / "data"
    write_synthetic_dataset(data, n_classes=2, train_per_class=2, n_frames=TINY.n_frames,
                            seed=5)
    config = root / "net.cfg"
    save_config(config, TINY)
    assert main(["train", "--config", str(config), "--data-root", str(data),
                 "--out", str(root / "run"), "--epochs", "1"]) == 0
    return data, config, root / "run" / "epoch_01.ckpt"


mutations = st.one_of(
    st.tuples(st.just("scale"), st.integers(-300, 308)),
    st.tuples(st.just("repeat"), st.integers(0, TINY.n_frames - 1)),
    st.tuples(st.just("truncate"), st.integers(1, 2)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
    st.tuples(st.just("same"), st.integers(0, TINY.n_frames - 1)),
)


def mutate(lines: list[str], mutation) -> list[str]:
    kind, arg = mutation[:2]
    if kind == "scale":
        return [" ".join(repr(float(v) * 10.0 ** arg) for v in line.split()) for line in lines]
    if kind == "repeat":
        return lines[:arg + 1] + lines[arg:]
    if kind == "truncate":
        return lines[:arg]
    if kind == "same":
        return [lines[arg]] * len(lines)
    tokens = [line.split() for line in lines]
    row = tokens[arg % len(tokens)]
    row.insert(arg // len(tokens) % (len(row) + 1), mutation[2])
    return [" ".join(row) for row in tokens]


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(mutation=mutations)
@example(mutation=("scale", 308))  # overflows in the lattice convolution
@example(mutation=("scale", 160))  # overflows in the window Gaussians
@example(mutation=("truncate", 1))
def test_train_and_extract_exit_0_or_name_the_file_once(fixture, mutation):
    data, config, checkpoint = fixture
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(data, root)
        seq = root / TARGET
        seq.write_text("".join(line + "\n" for line in mutate(seq.read_text().splitlines(),
                                                              mutation)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = [
                run("train", "--config", config, "--data-root", root,
                    "--out", Path(tmp) / "run", "--epochs", 1),
                run("extract", "--checkpoint", checkpoint, "--config", config,
                    "--data-root", root, "--out", Path(tmp) / "x.features"),
            ]
    for code, err in results:
        assert code in (0, 2), err
        if code == 2:
            assert err.count(TARGET) == 1 and "Traceback" not in err, err
