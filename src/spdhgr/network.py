"""Full gesture-recognition network: grid convolution feeding 30
spatial-temporal and 30 temporal-spatial branches, SPD aggregation under
a Stiefel-constrained weight, and a log-Euclidean softmax head.

Branch order is fixed (spatial-temporal branches first, each family in
the order of `skeleton.build_branch_plan`) and defines the column-block
layout of the combined aggregation weight, so checkpoints are portable;
docs/formats.md states it. Variants drop one branch family and shrink
the weight accordingly.

Each branch family runs as one call over the whole feature tensor with
the plan's branches (frame range and finger joints), so windows shared
between sub-sequences are computed once per sequence; see `layers`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas
from .errors import ConfigError, InvalidInput
from .layers import (
    _ROWS_OF,
    BranchContext,
    ConvContext,
    HeadContext,
    SpdAggContext,
    branch_backward,
    branch_output_dim,
    conv_backward,
    conv_forward,
    extract_representation,  # not called here; perfbench traces it under this module
    head_backward,
    head_forward,
    spd_agg_backward,
    spd_agg_forward,
    st_branch_forward,
    ts_branch_forward,
)
from .optim import load_checkpoint, save_checkpoint, stiefel_init, write_atomic
from .skeleton import (
    GRID_MODES,
    N_BRANCHES,
    N_FILTERS,
    SkeletonSequence,
    _lines,
    _read_text,
    build_branch_plan,
    resample,
)
from .symmat import sym_vectorize, tri_length

# variant -> the branch families it runs, in weight-block order
FAMILIES = {"st_ts": ("st", "ts"), "st_only": ("st",), "ts_only": ("ts",)}
VARIANTS = tuple(FAMILIES)


@dataclass
class NetworkConfig:
    """All architecture knobs; see docs/formats.md for the file format."""

    n_classes: int
    d_out_c: int = 9  # convolution output dimension
    d_out_s: int = 200  # side of the aggregated SPD matrix
    n_frames: int = 500  # frames after resampling
    t0: int = 1  # sliding-window half width
    n_chunks: int = 15  # temporal chunks per branch
    epsilon: float = 1e-4  # eigenvalue rectification threshold
    variant: str = "st_ts"
    grid_mode: str = "full"

    @property
    def d_in_s(self) -> int:
        """Branch descriptor side: half-vectorized (d+1)-Gaussian plus one."""
        return branch_output_dim(self.d_out_c)

    @property
    def n_inputs(self) -> int:
        return N_BRANCHES * len(FAMILIES[self.variant])

    @property
    def feature_dim(self) -> int:
        return tri_length(self.d_out_s)

    def validate(self) -> "NetworkConfig":
        problems = []
        if self.n_classes < 2:
            problems.append(f"n_classes must be >= 2, got {self.n_classes}")
        if self.d_out_c < 1:
            problems.append(f"d_out_c must be >= 1, got {self.d_out_c}")
        if self.d_out_s < 1:
            problems.append(f"d_out_s must be >= 1, got {self.d_out_s}")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.grid_mode not in GRID_MODES:
            problems.append(f"grid_mode must be one of {GRID_MODES}, got {self.grid_mode!r}")
        if self.t0 < 1:
            problems.append(f"t0 must be >= 1, got {self.t0}")
        if self.n_chunks < 2:
            problems.append(f"n_chunks must be >= 2, got {self.n_chunks}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            problems.append(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_frames < 6:
            problems.append(f"n_frames must be >= 6, got {self.n_frames}")
        elif self.t0 >= 1 and self.n_chunks >= 2:  # the layers' own row rule, shortest branch
            start, stop, joints = min(build_branch_plan(self.n_frames), key=lambda b: b[1] - b[0])
            sizes = {"st": self.t0, "ts": self.n_chunks}
            for family in FAMILIES.get(self.variant, ()):
                try:
                    _ROWS_OF[family](sizes[family], stop - start, joints)
                except InvalidInput as error:
                    problems.append(str(error))
        if self.variant in VARIANTS and self.d_out_s > self.n_inputs * self.d_in_s:
            problems.append(
                f"d_out_s {self.d_out_s} exceeds the aggregation width "
                f"{self.n_inputs} * {self.d_in_s} = {self.n_inputs * self.d_in_s}"
            )
        if problems:
            raise ConfigError("; ".join(problems))
        return self


_PARSERS = {"int": int, "float": float, "str": str}  # by annotation


def load_config(path, overrides: dict[str, str] | None = None) -> NetworkConfig:
    """Parse and validate a key=value config file, the one place a run's
    network is set.

    '#' starts a comment, and a key may be set once. ``overrides`` (the
    ablation knob's value) replace file values. An error for a key starts
    with where it was set: the file and line, or "override".
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    values: dict[str, tuple[str, str]] = {}  # key -> (value, where it was set)
    for lineno, line in enumerate(_lines(_read_text(path, "config file")), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key!r} set again, first at {values[key][1]}")
        values[key] = (value.strip(), f"{path}:{lineno}")
    values.update((key, (str(value), "override")) for key, value in (overrides or {}).items())
    parsers = {f.name: _PARSERS[f.type] for f in dataclasses.fields(NetworkConfig)}
    kwargs = {}
    for key, (value, where) in values.items():
        if key not in parsers:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            kwargs[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from exc
    if "n_classes" not in kwargs:
        raise ConfigError(f"{path}: config must set n_classes")
    return NetworkConfig(**kwargs).validate()


def save_config(path, config: NetworkConfig) -> None:
    text = "".join(f"{field.name}={getattr(config, field.name)}\n"
                   for field in dataclasses.fields(config))
    write_atomic(path, lambda fh: fh.write(text))


# ---------------------------------------------------------------------------
# parameters


@dataclass
class NetworkParams:
    """The trainable tensors, or their gradients (same fields, same shapes)."""

    conv: np.ndarray  # (9, d_out_c, 3)
    w_hat: np.ndarray  # (d_out_s, n_inputs * d_in_s), row-orthonormal
    fc_weight: np.ndarray  # (n_classes, d_out_s^2)
    fc_bias: np.ndarray  # (n_classes,)

    def scale_(self, factor: float) -> NetworkParams:
        for field in dataclasses.fields(self):
            tensor = getattr(self, field.name)
            tensor *= factor
        return self

    def zeros_like(self) -> NetworkParams:
        return NetworkParams(**{field.name: np.zeros_like(getattr(self, field.name))
                                for field in dataclasses.fields(self)})


# NetworkParams field -> (checkpoint tensor name, its shape under a config),
# in checkpoint file order
PARAM_TENSORS = {
    "conv": ("conv_weights", lambda c: (N_FILTERS, c.d_out_c, 3)),
    "w_hat": ("spdagg_w_hat", lambda c: (c.d_out_s, c.n_inputs * c.d_in_s)),
    "fc_weight": ("fc_weight", lambda c: (c.n_classes, c.d_out_s * c.d_out_s)),
    "fc_bias": ("fc_bias", lambda c: (c.n_classes,)),
}


def init_params(config: NetworkConfig, seed: int) -> NetworkParams:
    """Seeded init: fan-scaled uniform filters, Stiefel weight, zero FC.

    Holds OpenBLAS at one thread first (`blas`), so the initial ``w_hat``
    has the same bits at any ``OPENBLAS_NUM_THREADS`` and core count.
    """
    config.validate()
    blas.hold_one_thread()
    ss = np.random.SeedSequence(seed)
    conv_seed, stiefel_seed = ss.generate_state(2)
    rng = np.random.default_rng(conv_seed)
    shapes = {field: shape(config) for field, (_, shape) in PARAM_TENSORS.items()}
    bound = np.sqrt(3.0 / (3.0 * config.d_out_c))
    conv = rng.uniform(-bound, bound, size=shapes["conv"])
    w_hat = stiefel_init(*shapes["w_hat"], int(stiefel_seed))
    return NetworkParams(conv=conv, w_hat=w_hat, fc_weight=np.zeros(shapes["fc_weight"]),
                         fc_bias=np.zeros(shapes["fc_bias"]))


def save_params(path, params: NetworkParams) -> None:
    save_checkpoint(path, {name: getattr(params, field)
                           for field, (name, _) in PARAM_TENSORS.items()})


def load_params(path, config: NetworkConfig) -> NetworkParams:
    tensors = load_checkpoint(path)
    params = {}
    for field, (name, shape) in PARAM_TENSORS.items():
        if name not in tensors:
            raise ConfigError(f"checkpoint {path} is missing tensor {name!r}")
        want = shape(config)
        if tensors[name].shape != want:
            raise ConfigError(
                f"checkpoint {path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"config expects {want}"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise ConfigError(f"checkpoint {path}: tensor {name!r} has non-finite entries")
        params[field] = tensors[name]
    return NetworkParams(**params)


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardContext:
    params: NetworkParams  # the parameters the pass ran with
    conv: ConvContext
    branches: list[BranchContext]  # one per branch family, in weight-block order
    agg: SpdAggContext
    head: HeadContext
    feats_shape: tuple[int, int, int]


def _as_grid_coords(seq, config: NetworkConfig) -> np.ndarray:
    """A pass's lattice coordinates: the one place a sequence is resampled."""
    if isinstance(seq, SkeletonSequence) and seq.n_frames != config.n_frames:
        seq = resample(seq, config.n_frames)
    coords = seq.frames if isinstance(seq, SkeletonSequence) else np.asarray(seq)
    if coords.ndim != 3 or coords.shape[0] != config.n_frames:
        raise InvalidInput(
            f"expected coordinates of shape ({config.n_frames}, 20, 3), got {coords.shape}; "
            "pass a SkeletonSequence to have it resampled"
        )
    return np.asarray(coords, dtype=np.float64)


def forward(seq, params: NetworkParams, config: NetworkConfig):
    """Run the full pipeline on a `SkeletonSequence` (resampled to
    ``config.n_frames`` if it differs) or an (n_frames, 20, 3) array;
    returns (probs, context, final SPD matrix)."""
    blas.hold_one_thread()
    coords = _as_grid_coords(seq, config)
    feats, conv_ctx = conv_forward(coords, params.conv, config.grid_mode)
    branches = build_branch_plan(config.n_frames)

    # each family's layer and window size (t0 or chunk count)
    family_layers = {"st": (st_branch_forward, config.t0),
                     "ts": (ts_branch_forward, config.n_chunks)}
    inputs = []
    contexts = []
    for family in FAMILIES[config.variant]:
        layer, size = family_layers[family]
        y, ctx = layer(feats, size, config.epsilon, branches=branches)
        inputs.append(y)
        contexts.append(ctx)

    y_final, agg_ctx = spd_agg_forward(np.concatenate(inputs), params.w_hat)
    _, probs, head_ctx = head_forward(y_final, params.fc_weight, params.fc_bias,
                                      y_eig=agg_ctx.out_eig)
    ctx = ForwardContext(params=params, conv=conv_ctx, branches=contexts, agg=agg_ctx,
                         head=head_ctx, feats_shape=feats.shape)
    return probs, ctx, y_final


def backward(ctx: ForwardContext, true_label: int,
             into: NetworkParams | None = None) -> NetworkParams:
    """Full-chain gradients for all trainable tensors, added into a total.

    ``into`` is a running gradient total, such as a batch's sum, and
    without it a new zero one; it is returned. Each layer adds its
    gradient straight into it (the FC rows, then the aggregation-weight
    blocks, then the convolution filters and the FC bias), so no
    separate gradient set is held. The aggregation-weight gradient is
    Euclidean (pre tangent projection); branch gradients accumulate
    additively into the shared convolution filters.
    """
    if into is None:
        into = ctx.params.zeros_like()
    grad_y, _, dz = head_backward(ctx.head, true_label, into=into.fc_weight)
    grad_xs, _ = spd_agg_backward(ctx.agg, grad_y, into=into.w_hat)
    grad_feats = np.zeros(ctx.feats_shape)
    first = 0
    for bctx in ctx.branches:
        n = bctx.out_shape[0]
        grad_feats += branch_backward(bctx, grad_xs[first : first + n])
        first += n
    into.conv += conv_backward(ctx.conv, grad_feats)
    into.fc_bias += dz
    return into


def extract_features(seq, params: NetworkParams, config: NetworkConfig) -> np.ndarray:
    """Log-Euclidean feature vector of the final SPD matrix, vectorized
    from the head's log map (`extract_representation` of Y, bitwise)."""
    _, ctx, _ = forward(seq, params, config)
    return sym_vectorize(ctx.head.log_flat.reshape(ctx.head.eig.dim, -1))
