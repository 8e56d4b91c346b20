"""Optimizers and checkpoint serialization.

Plain SGD handles the Euclidean parameters (convolution filters, FC
layer); the combined SPD-aggregation weight lives on the compact Stiefel
manifold of row-orthonormal matrices and is updated by projecting the
Euclidean gradient onto the tangent space and retracting with a QR
factorization, so orthonormality never drifts.

Checkpoints are a small versioned binary container of named float64
tensors (layout in docs/formats.md).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInput, NumericalFailure
from .symmat import qr_orthonormalize


def euclid_sgd_step(param: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One plain gradient step: param - lr * grad."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape:
        raise InvalidInput(f"shape mismatch: param {param.shape} vs grad {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure("non-finite gradient in euclid_sgd_step")
    return param - lr * grad


def stiefel_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Row-orthonormal matrix from a seeded Gaussian, deterministic per seed."""
    if rows > cols:
        raise InvalidInput(f"need rows <= cols, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    return qr_orthonormalize(rng.standard_normal((rows, cols)))


def project_tangent(w: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Remove the component of a Euclidean gradient normal to the manifold."""
    return egrad - egrad @ w.T @ w


def stiefel_step(w: np.ndarray, egrad: np.ndarray, lr: float) -> np.ndarray:
    """Tangent-projected gradient step followed by QR retraction."""
    w = np.asarray(w, dtype=np.float64)
    egrad = np.asarray(egrad, dtype=np.float64)
    if w.shape != egrad.shape:
        raise InvalidInput(f"shape mismatch: weight {w.shape} vs grad {egrad.shape}")
    if not np.all(np.isfinite(egrad)):
        raise NumericalFailure("non-finite gradient in stiefel_step")
    return qr_orthonormalize(w - lr * project_tangent(w, egrad))


def stiefel_error(w: np.ndarray) -> float:
    """Frobenius distance of W W^T from the identity."""
    r = w.shape[0]
    return float(np.linalg.norm(w @ w.T - np.eye(r)))


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"SPDHGRCK"
_VERSION = 1


def write_atomic(path, write, mode: str = "w") -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then move it
    into place, so an interrupted or failed write leaves any previous file
    at ``path`` as it was and no temporary file behind. A path that cannot
    be written (missing directory, no permission) raises ConfigError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors to a little-endian binary container,
    atomically (``write_atomic``)."""

    def write(fh) -> None:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, tensor in tensors.items():
            arr = np.asarray(tensor, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}Q", len(encoded),
                                 encoded, arr.ndim, *arr.shape))
            fh.write(arr.data)

    write_atomic(path, write, "wb")


def load_checkpoint(path, kind: str = "checkpoint") -> dict[str, np.ndarray]:
    """Read a checkpoint container back into a name -> tensor dict.

    Any malformed file raises ConfigError naming it; ``kind`` says what
    the file was expected to be in those messages.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{kind} does not exist: {path}")
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:

        def read(n: int, what: str) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ConfigError(f"truncated {kind} {path}: while reading {what}")
            return data

        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ConfigError(f"{path} is not a {kind} (bad magic)")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != _VERSION:
            raise ConfigError(f"{path}: unsupported {kind} version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2, "name length"))
            try:
                name = read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: tensor name is not UTF-8 ({exc})") from None
            if name in tensors:
                raise ConfigError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<B", read(1, "rank"))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank, "dims"))
            n_bytes = 8 * math.prod(dims)  # Python ints: no overflow
            left = size - fh.tell()
            if n_bytes > left:
                raise ConfigError(f"truncated {kind} {path}: tensor {name!r} of shape "
                                  f"{dims} needs {n_bytes} bytes, {left} are left")
            try:
                tensor = np.empty(dims, dtype="<f8")
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: tensor {name!r} has bad shape {dims} "
                                  f"({exc})") from None
            if fh.readinto(tensor.reshape(-1).view(np.uint8)) != n_bytes:
                raise ConfigError(f"truncated {kind} {path}: while reading tensor {name!r}")
            tensors[name] = tensor
        if fh.tell() != size:
            raise ConfigError(f"{path}: {size - fh.tell()} bytes follow the last tensor")
    return tensors
