"""Mini-batch SGD training loop with per-epoch checkpoints and a manifest.

Serial and pooled runs share one pass loop, `_passes`. Each sequence runs
its forward, then waits for its turn and hands the batch's running
gradient total to `network.backward` as ``into``, so each layer adds its
gradient straight into it. The turns follow submission order, so the sum
is bitwise the serial one at any worker count, and no sequence's
gradient set is ever held apart from the total. A pool of ``workers``
threads keeps at most ``workers`` forward contexts alive; the final
evaluation runs on the same pool, with no backward and so no turns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import blas
from .errors import ConfigError, NumericalFailure
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
    checkpoints: list[str] = field(default_factory=list)
    workers: int = 1  # sequence workers the run used

    def manifest(self, *, config: NetworkConfig, seed: int, dataset_id: str,
                 n_sequences: int, batch_size: int, lr: float,
                 total_wall_time_s: float) -> dict:
        return {
            "run": "train",
            "config": asdict(config),
            "seed": seed,
            "dataset": {"id": dataset_id, "n_sequences": n_sequences},
            "batch_size": batch_size,
            "learning_rate": lr,
            "epochs": [asdict(r) for r in self.epochs],
            "final": {"mean_loss": self.final_loss, "accuracy": self.final_accuracy},
            "checkpoints": self.checkpoints,
            "total_wall_time_s": total_wall_time_s,
            "threads": {"workers": self.workers, "window_tables": table_threads(),
                        "blas_held": blas.held()},
        }


def _check_labels(sequences: list[SkeletonSequence], config: NetworkConfig) -> None:
    bad = sorted({s.label for s in sequences if not 0 <= s.label < config.n_classes})
    if bad:
        raise ConfigError(
            f"labels {bad} out of range for n_classes={config.n_classes}"
        )


def _passes(sequences, params: NetworkParams, config: NetworkConfig,
            pool: ThreadPoolExecutor | None = None, total: NetworkParams | None = None):
    """Yield (loss, whether correct) per sequence, in order.

    With a ``total``, the backwards take turns in sequence order adding into
    it, so a pool sums as the calling thread does. No pooled pass is ever
    cancelled: after an error the rest skip their work but pass their turns
    on, and the error is raised once all have ended."""
    turns = [threading.Event() for _ in range(len(sequences) + 1)]
    turns[0].set()
    stop = threading.Event()

    def one(i):
        try:
            if stop.is_set():
                return None
            seq = sequences[i]
            probs, ctx, _ = forward(seq, params, config)
            result = cross_entropy(probs, seq.label), int(np.argmax(probs)) == seq.label
            if total is not None:
                turns[i].wait()
                if not stop.is_set():
                    backward(ctx, seq.label, into=total)
            return result
        finally:
            if total is not None:
                # a failed sequence also passes the turn on, after its own
                turns[i].wait()
                turns[i + 1].set()

    if pool is None:
        yield from map(one, range(len(sequences)))
        return
    futures = [pool.submit(one, i) for i in range(len(sequences))]
    try:
        yield from (future.result() for future in futures)
    finally:
        stop.set()
        wait(futures)


def _apply_updates(params: NetworkParams, grads: NetworkParams, lr: float) -> NetworkParams:
    return NetworkParams(
        conv=euclid_sgd_step(params.conv, grads.conv, lr),
        w_hat=stiefel_step(params.w_hat, grads.w_hat, lr),
        fc_weight=euclid_sgd_step(params.fc_weight, grads.fc_weight, lr),
        fc_bias=euclid_sgd_step(params.fc_bias, grads.fc_bias, lr),
    )


def evaluate(sequences, params: NetworkParams, config: NetworkConfig,
             pool: ThreadPoolExecutor | None = None):
    """Mean loss and accuracy of fixed parameters over a sequence list."""
    losses, hits = zip(*_passes(sequences, params, config, pool)) if sequences else ((), ())
    return float(np.mean(losses)) if losses else float("nan"), sum(hits) / max(len(hits), 1)


def train_network(
    sequences: list[SkeletonSequence],
    params: NetworkParams,
    config: NetworkConfig,
    *,
    epochs: int = 15,
    batch_size: int = 30,
    lr: float = 0.01,
    seed: int = 0,
    workers: int = 1,
    out_dir=None,
    log=None,
) -> TrainResult:
    """Train in place for ``epochs`` epochs of shuffled mini-batches.

    Sequences may have any frame count: each pass resamples its sequence
    (`network.forward`). The arguments are checked before anything is
    written; then ``out_dir`` gets ``config.snapshot``, so an interrupted
    run's checkpoints can be extracted with it. A NaN batch loss aborts
    with the offending batch's sequence indices.
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
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for epoch in range(1, epochs + 1):
            t_start = time.perf_counter()
            order = rng.permutation(len(sequences))
            epoch_losses = []
            epoch_correct = 0
            for batch_lo in range(0, len(order), batch_size):
                batch = order[batch_lo : batch_lo + batch_size]
                items = [sequences[i] for i in batch]
                total = params.zeros_like()
                losses, hits = zip(*_passes(items, params, config, pool, total))
                epoch_correct += sum(hits)
                if not np.all(np.isfinite(losses)):
                    raise NumericalFailure(
                        f"non-finite loss in epoch {epoch}, batch of sequences "
                        f"{sorted(int(i) for i in batch)}"
                    )
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
        final_loss, final_acc = evaluate(sequences, params, config, pool)
    finally:
        if pool is not None:
            pool.shutdown()

    return TrainResult(params=params, epochs=records, final_loss=final_loss,
                       final_accuracy=final_acc, checkpoints=checkpoints, workers=workers)
