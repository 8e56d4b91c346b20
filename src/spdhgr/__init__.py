"""Skeleton-based hand-gesture recognition with SPD-matrix aggregation.

A lattice convolution over finger joints feeds two families of
Gaussian-aggregation branches whose SPD descriptors are fused by a
Stiefel-constrained aggregation layer; log-Euclidean features of the
fused matrix train a linear SVM. All backward passes are hand-written
and verified against finite differences (`spdhgr.gradcheck`).
"""

from .errors import (
    ConfigError,
    InvalidInput,
    NotSPD,
    NumericalFailure,
    ParseError,
    RankDeficient,
    SpdHgrError,
)
from .network import (
    NetworkConfig,
    NetworkParams,
    backward,
    extract_features,
    forward,
    init_params,
    load_config,
    load_params,
    save_params,
)
from .skeleton import (
    JointGrid,
    SkeletonSequence,
    build_branch_plan,
    grid_neighbors,
    load_dhg,
    load_fpha,
    resample,
    write_synthetic_dataset,
)
from .svm import SvmModel, svm_predict, svm_train
from .training import train_network

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InvalidInput",
    "JointGrid",
    "NetworkConfig",
    "NetworkParams",
    "NotSPD",
    "NumericalFailure",
    "ParseError",
    "RankDeficient",
    "SkeletonSequence",
    "SpdHgrError",
    "SvmModel",
    "backward",
    "build_branch_plan",
    "extract_features",
    "forward",
    "grid_neighbors",
    "init_params",
    "load_config",
    "load_dhg",
    "load_fpha",
    "load_params",
    "resample",
    "save_params",
    "svm_predict",
    "svm_train",
    "train_network",
    "write_synthetic_dataset",
]
