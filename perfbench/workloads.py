"""The three benchmark workloads: set-up, one timed unit, output check.

Every call into the program goes through a module attribute looked up
at call time (``skeleton.load_dhg``, ``training.train_network``, ...),
so the tracer's wrappers see it. A unit is a list of steps, one program
call each, which the runner times one by one; the last step returns the
unit's output.

    train     load + resample + init_params | train_network (1 epoch, batch 30)
    extract   load + resample + load_params | extract_features per sequence, save_features
    classify  import spdhgr.cli (fresh      | load_features x2, svm_train, svm_predict_batch
              interpreter)

Output checks compare each unit's results with the reference outputs of
the seed commit (``reference/<scale>_<workload>.npz``, written by
make_reference.py)
at tolerances that admit reordered floating-point sums (about 1e-12) but
no real change of results.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import Scale

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

LOSS_RTOL = 1e-9  # train: epoch and final losses, relative
STIEFEL_TOL = 1e-8  # train: ||W W^T - I||_F of the trained w_hat
FEATURE_RTOL = 1e-8  # extract: ||f - f_ref|| / ||f_ref|| per feature row

# extract compares each 20100-dim feature row through a seeded Gaussian
# sketch R (SKETCH_ROWS x dim, E||R e||^2 = ||e||^2), so the reference
# stores SKETCH_ROWS numbers per row instead of the row. ||R e|| stays
# within a factor 0.5..1.6 of ||e|| with probability > 0.999 at 32 rows.
SKETCH_ROWS = 32
SKETCH_SEED = 20190429


def sketch_matrix(dim: int) -> np.ndarray:
    rng = np.random.default_rng(SKETCH_SEED)
    return rng.standard_normal((SKETCH_ROWS, dim)) / np.sqrt(SKETCH_ROWS)


def reference_path(scale: Scale, workload: str) -> Path:
    return REFERENCE_DIR / f"{scale.name}_{workload}.npz"


def load_reference(scale: Scale, workload: str) -> dict[str, np.ndarray]:
    with np.load(reference_path(scale, workload), allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def network_config(scale: Scale):
    from spdhgr import network

    return network.NetworkConfig(n_classes=scale.n_classes, d_out_c=scale.d_out_c,
                                 d_out_s=scale.d_out_s, n_frames=scale.n_frames,
                                 n_chunks=scale.n_chunks).validate()


def load_split(root: Path, split: str, scale: Scale):
    from spdhgr import skeleton

    raw = skeleton.load_dhg(root, split, classes=14)
    return [skeleton.resample(seq, scale.n_frames) for seq in raw]


@dataclass
class Workload:
    """One workload bound to its inputs; subclasses define the three phases."""

    scale: Scale
    workdir: Path
    pool: int  # input set; also seeds init_params and the shuffle
    reference: dict | None = None
    state: dict = field(default_factory=dict)

    name = ""
    item = ""  # what one operation is
    # (module, attribute, every): program functions called inside a long
    # step, where the runner may measure the host's speed before every
    # ``every``-th call (the time of that measurement is not counted)
    pause_points = ()
    host_kernel = "network"  # hostspeed.KERNELS: the kind of work the unit does

    @property
    def items_per_unit(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Program set-up before the timed phase; may run several times."""
        raise NotImplementedError

    def steps(self) -> list:
        """The unit's program calls, as functions of no arguments."""
        raise NotImplementedError

    def unit(self):
        """Run one unit's steps back to back; returns the unit's output."""
        output = None
        for step in self.steps():
            output = step()
        return output

    def check(self, output) -> int:
        """Number of the unit's operations whose outputs are wrong."""
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"
    item = "sequence x epoch trained"
    # train_network is one long call; forward runs once per sequence in
    # the training pass and once in the evaluation pass
    pause_points = (("spdhgr.training", "forward", 3),)

    @property
    def items_per_unit(self) -> int:
        return self.scale.train_seqs * self.scale.epochs

    def setup(self) -> None:
        from spdhgr import network

        config = network_config(self.scale)
        self.state["config"] = config
        self.state["seqs"] = load_split(self.workdir / "dhg", "train", self.scale)
        self.state["params"] = network.init_params(config, seed=self.pool)

    def steps(self) -> list:
        from spdhgr import training

        def train():
            return training.train_network(
                self.state["seqs"], self.state["params"], self.state["config"],
                epochs=self.scale.epochs, batch_size=self.scale.batch_size, seed=self.pool,
            )

        return [train]

    def check(self, result) -> int:
        ref = self.reference
        losses = np.array([r.mean_loss for r in result.epochs] + [result.final_loss])
        want = np.append(ref["train_epoch_loss"][self.pool], ref["train_final_loss"][self.pool])
        params = result.params
        w = params.w_hat
        ok = (
            losses.shape == want.shape
            and bool(np.all(np.abs(losses - want) <= LOSS_RTOL * np.abs(want)))
            and all(np.all(np.isfinite(p)) for p in
                    (params.conv, params.w_hat, params.fc_weight, params.fc_bias))
            and float(np.linalg.norm(w @ w.T - np.eye(w.shape[0]))) <= STIEFEL_TOL
        )
        return 0 if ok else self.items_per_unit


class ExtractWorkload(Workload):
    name = "extract"
    item = "sequence extracted"

    @property
    def items_per_unit(self) -> int:
        return self.scale.extract_seqs

    def setup(self) -> None:
        from spdhgr import network

        config = network_config(self.scale)
        self.state["config"] = config
        self.state["seqs"] = load_split(self.workdir / "dhg", "test", self.scale)
        self.state["params"] = network.load_params(self.workdir / "model.ckpt", config)

    def steps(self) -> list:
        from spdhgr import network, svm

        seqs, params, config = self.state["seqs"], self.state["params"], self.state["config"]
        feats = []
        out = self.workdir / "extracted.features"

        def extract(seq):
            return lambda: feats.append(network.extract_features(seq, params, config))

        def save():
            svm.save_features(out, [seq.label for seq in seqs], feats)
            return np.stack(feats), out

        return [extract(seq) for seq in seqs] + [save]

    def check(self, output) -> int:
        from spdhgr import svm

        feats, path = output
        if "sketch" not in self.state:
            self.state["sketch"] = sketch_matrix(self.scale.feature_dim)
        want_sketch = self.reference["extract_sketch"][self.pool]
        want_norm = self.reference["extract_norm"][self.pool]
        if feats.shape != (self.items_per_unit, self.scale.feature_dim):
            return self.items_per_unit
        err = np.linalg.norm(feats @ self.state["sketch"].T - want_sketch, axis=1)
        row_ok = np.all(np.isfinite(feats), axis=1) & (err <= FEATURE_RTOL * want_norm)
        # the written file must hold exactly the extracted rows and labels
        labels, back = svm.load_features(path)
        file_ok = (np.array_equal(labels, [s.label for s in self.state["seqs"]])
                   and back.shape == feats.shape and np.array_equal(back, feats))
        return self.items_per_unit if not file_ok else int(np.sum(~row_ok))


class ClassifyWorkload(Workload):
    name = "classify"
    item = "test row predicted"
    host_kernel = "svm"

    @property
    def items_per_unit(self) -> int:
        return self.scale.fpha_classes * self.scale.fpha_test_per_class

    def setup(self) -> None:
        """The classify command has no set-up in process; a CLI run pays
        the interpreter start and the program's imports, so that is timed."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        subprocess.run([sys.executable, "-c", "import spdhgr.cli"], env=env, check=True,
                       timeout=60)

    def steps(self) -> list:
        from spdhgr import svm

        data = {}

        def load(split):
            def step():
                data[split] = svm.load_features(self.workdir / f"{split}.features")
            return step

        def fit():
            y_train, x_train = data["train"]
            data["model"] = svm.svm_train(x_train, y_train, c=1.0, tol=0.1)

        def predict():
            return svm.svm_predict_batch(data["model"], data["test"][1])

        return [load("train"), load("test"), fit, predict]

    def check(self, pred) -> int:
        want = self.reference["classify_pred"][self.pool]
        pred = np.asarray(pred)
        if pred.shape != want.shape:
            return self.items_per_unit
        return int(np.sum(pred != want))


WORKLOAD_TYPES = {w.name: w for w in (TrainWorkload, ExtractWorkload, ClassifyWorkload)}
