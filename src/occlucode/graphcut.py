"""Exact binary MRF maximization on a pixel grid via s-t min-cut.

The objective being maximized over z in {0,1}^m is

    E(z) = sum_{(i,j) in edges} beta * z[i] * z[j] + sum_i theta_i(z[i])

which is supermodular for beta >= 0, so the negated energy is submodular
and one min-cut gives the global optimum. The pairwise reward is
rewritten with the identity  z_i z_j = (z_i + z_j)/2 - (z_i - z_j)^2 / 2
(valid on {0,1}), yielding unary bonuses plus a standard Potts edge of
weight beta/2.

Capacities are scaled to integers for the max-flow backend. The backend
computes in 32-bit arithmetic, so the scale is chosen per call: as large
as possible while keeping the total capacity below 2^31. For the small
grids this keeps rounding around 1e-6 of a unit of energy, far below any
realistic energy gap.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

INT32_BUDGET = 2.0e9


def grid_edges(height: int, width: int, neighborhood: str = "4-connected"):
    """Index pairs (i, j), i < j, of neighboring pixels in row-major order."""
    idx = np.arange(height * width).reshape(height, width)
    pairs = [
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ]
    if neighborhood == "8-connected":
        pairs.append(np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()], axis=1))
        pairs.append(np.stack([idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()], axis=1))
    elif neighborhood != "4-connected":
        raise ValueError(f"unknown neighborhood {neighborhood!r}")
    return np.concatenate(pairs, axis=0)


def maximize_grid_mrf(
    theta0: np.ndarray,
    theta1: np.ndarray,
    beta: float,
    edges: np.ndarray,
) -> np.ndarray:
    """Global argmax of the supermodular grid objective; returns z in {0,1}^m."""
    m = theta0.size
    if beta < 0:
        raise ValueError("beta must be >= 0")

    # cost of each label after the pairwise rewrite (we minimize -E)
    deg = np.bincount(edges.ravel(), minlength=m)
    cost1 = -theta1 - 0.5 * beta * deg
    cost0 = -theta0

    # node i sits on the source side iff z_i = 1
    shift = np.minimum(cost0, cost1)
    cap_s = cost0 - shift  # cut when z_i = 0
    cap_t = cost1 - shift  # cut when z_i = 1

    if beta == 0.0 or edges.size == 0:
        return (cost1 < cost0).astype(np.int8) | (cost1 == cost0).astype(np.int8)

    s, t = m, m + 1
    w_edge = 0.5 * beta
    rows = np.concatenate(
        [np.full(m, s), np.arange(m), edges[:, 0], edges[:, 1]]
    )
    cols = np.concatenate(
        [np.arange(m), np.full(m, t), edges[:, 1], edges[:, 0]]
    )
    caps = np.concatenate(
        [cap_s, cap_t, np.full(2 * len(edges), w_edge)]
    )
    scale = max(1.0, INT32_BUDGET / max(caps.sum(), 1e-12))
    icaps = np.rint(caps * scale).astype(np.int64)
    keep = icaps > 0
    graph = sparse.csr_matrix(
        (icaps[keep], (rows[keep], cols[keep])), shape=(m + 2, m + 2)
    )
    result = maximum_flow(graph, s, t)

    # source side of the min cut = nodes reachable in the residual graph
    resid = graph - result.flow
    resid.data = np.maximum(resid.data, 0)
    resid.eliminate_zeros()
    order = breadth_first_order(resid, s, directed=True, return_predecessors=False)
    z = np.zeros(m, dtype=np.int8)
    reachable = order[order < m]
    z[reachable] = 1
    return z


def mrf_energy(z, theta0, theta1, beta, edges) -> float:
    """Objective value of a labeling (for traces and oracle checks)."""
    z = np.asarray(z)
    e = float(np.where(z == 1, theta1, theta0).sum())
    if len(edges):
        e += beta * float((z[edges[:, 0]] * z[edges[:, 1]]).sum())
    return e
