"""Reference forms of the pure peel's top-down pass, kept as test oracles.

The library reads site j's 2x2 Gram matrix of a pure level from three dot
products of the level's two halves, and contracts a level with its columns
in one reordered chain that divides by their norms once, at the end.  These
bodies form the Gram matrix as ``rows @ rows.conj().T`` and contract the
leading sites in place with columns normalized by numpy, as the peel once
did.  Both must agree to rounding and follow the same rows.
"""
import numpy as np


def gram_level(view):
    """(weights, total, defect, gram, k) of one pure level: its rows' weights,
    their sum, site j's defect 1 - |G|^2 / tr(G)^2, the Gram matrix G and its
    heaviest row k (ties to the first)."""
    rows = view.reshape(2, -1)
    gram = rows @ rows.conj().T
    weights = gram.diagonal().real.tolist()
    k = weights.index(max(weights))
    total = sum(weights)
    defect = 1.0 - float(np.vdot(gram, gram).real) / total**2
    return weights, total, defect, gram, k


def gram_product_overlap(level, columns):
    """F = |t|^2 / |level|^2 for ``level`` contracted with unit vectors along ``columns``."""
    t = level
    for c in columns:
        t = (c.conj() / np.linalg.norm(c)) @ t.reshape(len(c), -1)
    return float(np.vdot(t, t).real) / float(np.vdot(level, level).real)
