"""Mini-batch SGD training loop with per-epoch checkpoints and a manifest.

Sequences run one at a time, in batch order: each forward is followed by
its backward, which adds its gradients straight into the batch's running
total (`network.backward`'s ``into``), so no sequence's gradient set is
held apart from the total, and its forward context is dropped before the
next forward. The second core works inside the layers (`layers`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import blas
from .errors import ConfigError, NumericalFailure, named
from .layers import cross_entropy, table_threads
from .network import NetworkConfig, NetworkParams, backward, forward, save_config, save_params
from .optim import euclid_sgd_step, stiefel_step
from .skeleton import SkeletonSequence, check_resamplable


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    accuracy: float
    wall_time_s: float


@dataclass
class TrainResult:
    params: NetworkParams
    epochs: list[EpochRecord]
    final_loss: float
    final_accuracy: float
    batch_size: int
    lr: float
    checkpoints: list[str] = field(default_factory=list)

    def manifest(self, *, config: NetworkConfig, seed: int, dataset_id: str,
                 n_sequences: int, total_wall_time_s: float) -> dict:
        return {
            "run": "train",
            "config": asdict(config),
            "seed": seed,
            "dataset": {"id": dataset_id, "n_sequences": n_sequences},
            "batch_size": self.batch_size,
            "learning_rate": self.lr,
            "epochs": [asdict(r) for r in self.epochs],
            "final": {"mean_loss": self.final_loss, "accuracy": self.final_accuracy},
            "checkpoints": self.checkpoints,
            "total_wall_time_s": total_wall_time_s,
            "threads": {"window_tables": table_threads(), "blas_held": blas.held()},
        }


def _check_labels(sequences: list[SkeletonSequence], config: NetworkConfig) -> None:
    """Refuse labels outside [0, n_classes), naming the first three such
    sequences' files (or, without one, their indices)."""
    bad = [(i, s) for i, s in enumerate(sequences) if not 0 <= s.label < config.n_classes]
    if bad:
        names = ", ".join(s.source or f"sequence {i}" for i, s in bad[:3])
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise ConfigError(f"{names}{more}: labels {sorted({s.label for _, s in bad})} "
                          f"out of range for n_classes={config.n_classes}")


def _passes(sequences, params: NetworkParams, config: NetworkConfig, stage: str,
            total: NetworkParams | None = None):
    """Yield (loss, whether correct) per sequence, in order; with a
    ``total``, each backward adds into it. A package error from one
    sequence names its file and ``stage``."""
    for seq in sequences:
        with named(seq.source, stage):
            probs, ctx = forward(seq, params, config)[:2]
            result = cross_entropy(probs, seq.label), int(np.argmax(probs)) == seq.label
            if total is not None:
                backward(ctx, seq.label, into=total)
        del ctx  # not held through the next forward
        yield result


def _apply_updates(params: NetworkParams, grads: NetworkParams, lr: float) -> NetworkParams:
    return NetworkParams(
        conv=euclid_sgd_step(params.conv, grads.conv, lr),
        w_hat=stiefel_step(params.w_hat, grads.w_hat, lr),
        fc_weight=euclid_sgd_step(params.fc_weight, grads.fc_weight, lr),
        fc_bias=euclid_sgd_step(params.fc_bias, grads.fc_bias, lr),
    )


def train_network(
    sequences: list[SkeletonSequence],
    params: NetworkParams,
    config: NetworkConfig,
    *,
    epochs: int = 15,
    batch_size: int = 30,
    lr: float = 0.01,
    seed: int = 0,
    out_dir=None,
    log=None,
) -> TrainResult:
    """Train for ``epochs`` epochs of shuffled mini-batches.

    The trained parameters are new arrays in the result; the arrays of
    ``params`` keep their values, so one start can seed several runs.

    Sequences may have any frame count: each pass resamples its sequence
    (`network.forward`). The arguments are checked before anything is
    written; then ``out_dir`` gets ``config.snapshot``, so an interrupted
    run's checkpoints can be extracted with it. A non-finite loss aborts
    the run after its batch, naming each such sequence's file (or, without
    one, its index in ``sequences``).
    """
    if not sequences:
        raise ConfigError("training set is empty")
    for seq in sequences:
        check_resamplable(seq)
    _check_labels(sequences, config)
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not np.isfinite(lr):
        raise ConfigError(f"lr must be finite, got {lr}")
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror or exc}") from None
        save_config(out_dir / "config.snapshot", config)
    rng = np.random.default_rng(seed)
    records = []
    checkpoints = []
    for epoch in range(1, epochs + 1):
        t_start = time.perf_counter()
        order = rng.permutation(len(sequences))
        epoch_losses = []
        epoch_correct = 0
        for batch_lo in range(0, len(order), batch_size):
            batch = order[batch_lo : batch_lo + batch_size]
            items = [sequences[i] for i in batch]
            total = params.zeros_like()
            losses, hits = zip(*_passes(items, params, config, f"epoch {epoch}", total))
            epoch_correct += sum(hits)
            bad = [seq.source or f"sequence {i}"
                   for i, seq, loss in zip(batch, items, losses) if not np.isfinite(loss)]
            if bad:
                raise NumericalFailure(f"{', '.join(bad)}, epoch {epoch}: "
                                       f"non-finite loss in a batch of {len(items)}")
            total.scale_(1.0 / len(items))
            epoch_losses.extend(losses)
            params = _apply_updates(params, total, lr)
            del total  # not held through the next batch or the evaluation
        record = EpochRecord(
            epoch=epoch,
            mean_loss=float(np.mean(epoch_losses)),
            accuracy=epoch_correct / len(sequences),
            wall_time_s=time.perf_counter() - t_start,
        )
        records.append(record)
        if out_dir is not None:
            ckpt = out_dir / f"epoch_{epoch:02d}.ckpt"
            save_params(ckpt, params)
            checkpoints.append(ckpt.name)
        if log is not None:
            log(f"EPOCH {epoch} loss={record.mean_loss!r} "
                f"acc={record.accuracy!r} time={record.wall_time_s:.3f}")
    losses, hits = zip(*_passes(sequences, params, config, "final evaluation"))
    return TrainResult(params=params, epochs=records, final_loss=float(np.mean(losses)),
                       final_accuracy=sum(hits) / len(sequences), batch_size=batch_size,
                       lr=lr, checkpoints=checkpoints)
