"""Sparse coding over a blocked dictionary.

A signal built from two atoms of a random dictionary is recovered by
l1-constrained coding; a signal drawn from one block's span is recovered
by group-structured coding, which concentrates the coefficient energy on
the generating block.
"""

import numpy as np

from occlucode import (
    ImageVector,
    SolverConfig,
    solve_group_bpdn,
    solve_l1_bpdn,
    stack_blocks,
)
from occlucode.core import FACE, normalize_columns

rng = np.random.default_rng(0)

# --- plain l1: sparse recovery -------------------------------------------
m, n = 8, 12
atoms = normalize_columns(rng.standard_normal((m, n)))
dictionary = stack_blocks([("all", FACE, atoms)])

noise = rng.standard_normal(m)
noise *= 0.01 / np.linalg.norm(noise)
u = ImageVector(0.7 * atoms[:, 2] + 0.3 * atoms[:, 8] + noise, (2, 4))

report = solve_l1_bpdn(u, dictionary, SolverConfig(epsilon=0.02))
w = report.coefficients.values
print("l1 coding")
print("  true support: {2, 8}")
print("  recovered   :", sorted(np.argsort(-np.abs(w))[:2].tolist()))
print(f"  residual    : {report.final_residual:.4f} (bound 0.02)")
print(f"  |w|_1       : {report.objective:.4f}")

# --- group sparsity: whole blocks switch on or off ------------------------
# three blocks of four atoms each, laid side by side in order
blocked = stack_blocks([(label, FACE, part) for label, part in zip("abc", np.hsplit(atoms, 3))])
b_atoms = blocked.atoms[:, blocked.block("b").cols]
u2 = ImageVector(b_atoms @ np.array([0.5, 0.4, 0.0, 0.3]), (2, 4))

report = solve_group_bpdn(u2, blocked, SolverConfig(epsilon=0.01, lam=1.0))
w = report.coefficients.values
print("\ngroup coding (signal lives in block 'b')")
for b in blocked.blocks:
    print(f"  block {b.label}: ||w_b|| = {np.linalg.norm(w[b.cols]):.4f}")
