import concurrent.futures
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from spdhgr import training
from spdhgr.errors import ConfigError, NumericalFailure
from spdhgr.network import NetworkConfig, init_params
from spdhgr.optim import stiefel_error
from spdhgr.skeleton import SkeletonSequence, load_dhg, resample, write_synthetic_dataset
from spdhgr.training import evaluate, train_network

CONFIG = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=24, n_frames=12, t0=1,
                       n_chunks=2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dataset(root, n_classes=2, train_per_class=5, n_frames=15, seed=3)
    return [resample(s, CONFIG.n_frames) for s in load_dhg(root, "train")]


def _run_bounded(fn, timeout=60.0):
    """Run ``fn`` on a thread for at most ``timeout`` seconds; the errors it
    raised."""
    errors = []

    def target():
        try:
            fn()
        except Exception as exc:
            errors.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"still running after {timeout} s"
    return errors


class TestTrainLoop:
    def test_loss_decreases_and_records(self, dataset, tmp_path):
        params = init_params(CONFIG, 0)
        result = train_network(dataset, params, CONFIG, epochs=4, batch_size=30,
                               lr=0.01, seed=0, out_dir=tmp_path)
        assert len(result.epochs) == 4
        losses = [r.mean_loss for r in result.epochs]
        assert losses[-1] < losses[0]
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.epochs)
        assert result.checkpoints == [f"epoch_{k:02d}.ckpt" for k in (1, 2, 3, 4)]
        for name in result.checkpoints:
            assert (tmp_path / name).is_file()
        assert stiefel_error(result.params.w_hat) <= 1e-8

    def test_deterministic_given_seed(self, dataset):
        r1 = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                           batch_size=4, lr=0.01, seed=7)
        r2 = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                           batch_size=4, lr=0.01, seed=7)
        assert [r.mean_loss for r in r1.epochs] == [r.mean_loss for r in r2.epochs]
        assert np.array_equal(r1.params.w_hat, r2.params.w_hat)

    def test_workers_do_not_change_result(self, dataset):
        serial = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=4, lr=0.01, seed=7, workers=1)
        pooled = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=4, lr=0.01, seed=7, workers=3)
        assert [r.mean_loss for r in serial.epochs] == [r.mean_loss for r in pooled.epochs]
        assert serial.final_loss == pooled.final_loss
        assert serial.final_accuracy == pooled.final_accuracy
        for name in ("conv", "w_hat", "fc_weight", "fc_bias"):
            assert np.array_equal(getattr(serial.params, name), getattr(pooled.params, name))

    def test_pool_holds_at_most_workers_contexts_and_adds_into_the_batch_total(
            self, dataset, monkeypatch):
        """With the batch's first item slow, the items behind it wait for
        their turn holding their forward contexts, so no more than
        ``workers`` are alive; every backward adds into the one batch total
        that the update then reads."""
        workers, seed = 2, 7
        # train_network draws the batch order from default_rng(seed)
        first = dataset[int(np.random.default_rng(seed).permutation(len(dataset))[0])]
        forward, backward = training.forward, training.backward
        euclid_sgd_step = training.euclid_sgd_step
        lock = threading.Lock()
        contexts, most_alive, totals, conv_steps = [], [], [], []

        def slow_first(seq, *args):
            if seq is first:
                time.sleep(0.3)
            out = forward(seq, *args)
            with lock:
                contexts.append(weakref.ref(out[1]))
                most_alive.append(sum(ref() is not None for ref in contexts))
            return out

        def recording(ctx, label, into=None):
            totals.append(into)
            return backward(ctx, label, into=into)

        def step(param, grad, lr):
            conv_steps.append(grad)
            return euclid_sgd_step(param, grad, lr)

        monkeypatch.setattr(training, "forward", slow_first)
        monkeypatch.setattr(training, "backward", recording)
        monkeypatch.setattr(training, "euclid_sgd_step", step)
        train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=1,
                      batch_size=len(dataset), lr=0.01, seed=seed, workers=workers)
        # one batch: one backward per sequence, then the training passes'
        # forwards and the final evaluation's
        assert len(totals) == len(dataset) and len(contexts) == 2 * len(dataset)
        assert max(most_alive) <= workers
        assert totals[0] is not None and all(t is totals[0] for t in totals)
        assert conv_steps[0] is totals[0].conv

    def test_failing_forward_in_a_pool_raises_and_leaves_no_thread(self, dataset,
                                                                    monkeypatch):
        """The third forward of a pooled batch raises; the sequences after
        it still get their turns, so train_network raises that error and
        its pool's threads all end."""
        forward = training.forward
        lock = threading.Lock()
        calls = []

        def third_fails(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise NumericalFailure("third forward failed")
            return forward(*args)

        monkeypatch.setattr(training, "forward", third_fails)
        before = set(threading.enumerate())
        errors = _run_bounded(lambda: train_network(
            dataset, init_params(CONFIG, 0), CONFIG, epochs=1, batch_size=len(dataset),
            lr=0.01, seed=7, workers=2))
        assert len(errors) == 1 and isinstance(errors[0], NumericalFailure)
        assert str(errors[0]) == "third forward failed"
        left = [t for t in threading.enumerate()
                if t not in before and not t.name.startswith("spdhgr-table")]
        assert left == []

    def test_error_while_a_dequeued_item_is_not_yet_running(self, dataset,
                                                             monkeypatch):
        """A pool worker takes an item off its queue before marking it
        running; an item cancelled in between never runs. Here the second
        item is held in that gap while the third already waits for its
        turn, and the first item's forward raises: the passes must not
        cancel the second, or the third and all behind it wait forever."""
        first = dataset[int(np.random.default_rng(7).permutation(len(dataset))[0])]
        forward = training.forward
        cancelled = []

        class NotedFuture(concurrent.futures.Future):
            def __init__(self):
                super().__init__()
                self.cancel_called = threading.Event()

            def cancel(self):
                done = super().cancel()
                cancelled.append(done)
                self.cancel_called.set()
                return done

        class HoldsSecondItem(concurrent.futures.Executor):
            """Runs each item on its own thread at once, except the second:
            that one is marked running only once it is cancelled or a
            second has passed."""

            def __init__(self, max_workers):
                self.threads = []

            def submit(self, fn, /, *args):
                future = NotedFuture()
                held = args[0] == 1
                if not held:
                    future.set_running_or_notify_cancel()

                def run():
                    if held:
                        future.cancel_called.wait(1.0)
                        if not future.set_running_or_notify_cancel():
                            return
                    try:
                        future.set_result(fn(*args))
                    except BaseException as exc:
                        future.set_exception(exc)

                thread = threading.Thread(target=run, daemon=True)
                self.threads.append(thread)
                thread.start()
                return future

            def shutdown(self, wait=True, **kwargs):
                for thread in self.threads:
                    thread.join()

        def first_fails(seq, *args):
            if seq is first:
                raise NumericalFailure("first forward failed")
            return forward(seq, *args)

        monkeypatch.setattr(training, "forward", first_fails)
        monkeypatch.setattr(training, "ThreadPoolExecutor", HoldsSecondItem)
        errors = _run_bounded(lambda: train_network(
            dataset, init_params(CONFIG, 0), CONFIG, epochs=1, batch_size=len(dataset),
            lr=0.01, seed=7, workers=2), timeout=20.0)
        assert len(errors) == 1 and str(errors[0]) == "first forward failed"
        assert not any(cancelled)

    def test_workers_under_fast_thread_switching(self, dataset):
        """More workers than cores and a thread switch every microsecond
        still give the serial run's bits."""
        serial = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=1,
                               batch_size=5, lr=0.01, seed=11)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_bounded(lambda: results.append(train_network(
                dataset, init_params(CONFIG, 0), CONFIG, epochs=1, batch_size=5,
                lr=0.01, seed=11, workers=4)))
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(results) == 1
        pooled = results[0]
        assert [r.mean_loss for r in serial.epochs] == [r.mean_loss for r in pooled.epochs]
        assert (serial.final_loss, serial.final_accuracy) == (pooled.final_loss,
                                                              pooled.final_accuracy)
        for name in ("conv", "w_hat", "fc_weight", "fc_bias"):
            assert getattr(serial.params, name).tobytes() == getattr(pooled.params,
                                                                     name).tobytes()

    def test_nan_loss_aborts_with_batch_ids(self, dataset):
        params = init_params(CONFIG, 0)
        params.fc_weight = np.full_like(params.fc_weight, np.nan)
        with pytest.raises(NumericalFailure, match="batch"):
            train_network(dataset, params, CONFIG, epochs=1, batch_size=30, lr=0.01)

    def test_label_out_of_range(self, dataset):
        bad = list(dataset)
        bad[0] = resample(bad[0], CONFIG.n_frames)
        bad[0].label = 5
        with pytest.raises(ConfigError, match="labels"):
            train_network(bad, init_params(CONFIG, 0), CONFIG, epochs=1)
        bad[0].label = 0  # module-scoped fixture: restore

    @pytest.mark.parametrize("kwargs, message", [
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(batch_size=-3), "batch_size must be >= 1, got -3"),
        (dict(epochs=-2), "epochs must be >= 0, got -2"),
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(lr=float("nan")), "lr must be finite, got nan"),
        (dict(lr=float("inf")), "lr must be finite, got inf"),
    ])
    def test_bad_arguments_rejected(self, dataset, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            train_network(dataset, init_params(CONFIG, 0), CONFIG, **kwargs)

    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            train_network([], init_params(CONFIG, 0), CONFIG)

    def test_monotone_descent_first_steps(self, tmp_path_factory):
        """Full-batch loss decreases over the first five updates for most
        seeds."""
        root = tmp_path_factory.mktemp("mono")
        write_synthetic_dataset(root, n_classes=2, train_per_class=5, n_frames=15,
                                seed=11)
        seqs = [resample(s, CONFIG.n_frames) for s in load_dhg(root, "train")]
        good = 0
        for seed in range(5):
            result = train_network(seqs, init_params(CONFIG, seed), CONFIG,
                                   epochs=5, batch_size=30, lr=0.01, seed=seed)
            losses = [r.mean_loss for r in result.epochs]
            good += all(b < a for a, b in zip(losses, losses[1:]))
        assert good >= 4

    def test_manifest_contents(self, dataset, tmp_path):
        result = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=30, lr=0.01, seed=0, out_dir=tmp_path)
        manifest = result.manifest(config=CONFIG, seed=0, dataset_id="dhg14:train",
                                   n_sequences=len(dataset),
                                   batch_size=30, lr=0.01, total_wall_time_s=1.0)
        assert manifest["config"]["d_out_s"] == CONFIG.d_out_s
        assert len(manifest["epochs"]) == 2
        assert {"epoch", "mean_loss", "accuracy", "wall_time_s"} <= set(manifest["epochs"][0])
        assert manifest["dataset"]["id"] == "dhg14:train"
        assert "deterministic" not in manifest
        threads = manifest["threads"]
        assert threads["window_tables"] in (1, 2)
        assert isinstance(threads["blas_held"], bool)


class TestEvaluate:
    def test_matches_final_metrics(self, dataset):
        result = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=30, lr=0.01, seed=0)
        loss, acc = evaluate(dataset, result.params, CONFIG)
        assert loss == pytest.approx(result.final_loss)
        assert acc == pytest.approx(result.final_accuracy)


def test_paper_scale_batch_peak_memory():
    """One batch of two paper-scale sequences stays under a traced peak of
    42 MB above entry; holding each item's gradient set apart from the
    batch total took 51 MB."""
    config = NetworkConfig(n_classes=14).validate()
    rng = np.random.default_rng(0)
    seqs = [SkeletonSequence(frames=rng.standard_normal((500, 20, 3)), label=label)
            for label in (0, 5)]
    params = init_params(config, 0)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_network(seqs, params, config, epochs=1, batch_size=2)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 42e6, f"peak {peak / 1e6:.1f} MB above entry"
