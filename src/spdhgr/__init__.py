"""Skeleton-based hand-gesture recognition with SPD-matrix aggregation.

A lattice convolution over finger joints feeds two families of
Gaussian-aggregation branches whose SPD descriptors are fused by a
Stiefel-constrained aggregation layer; log-Euclidean features of the
fused matrix train a linear SVM. All backward passes are hand-written
and verified against finite differences (`spdhgr.gradcheck`).
"""

__version__ = "0.1.0"
