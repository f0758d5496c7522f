"""Gramians, the controllability space, and the autonomous rank criterion.

The diagonal two-time system shows the central subtlety of multitime
control: along the axis t2 = 0 the gramian has rank 1 even though the
block controllability matrix G has full rank 2.  The rank equality only
holds when every time coordinate strictly advances.
"""

import math

import numpy as np

from mtcontrol import (CompatibilityError, LinearSystem, PolylineCurve,
                       controllability_gramian, controllability_matrix,
                       controllability_space, decide_transfer, rank_G)

diag = LinearSystem.from_data(
    2, 2, 1,
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1], [0]], [[0], [1]]])

C = controllability_gramian(diag, (0, 0), (1, 0))
print("C((0,0),(1,0)) =")
print(np.array_str(C.value, precision=10))
print(f"closed form (1 - e^-2)/2 = {(1 - math.exp(-2)) / 2:.10f}\n")

G = controllability_matrix(diag)
rank_g = rank_G(G)
print(f"G = {G.value.astype(int).tolist()}")
print(f"rank G = {rank_g}")

for endpoint in ((1.0, 0.0), (1.0, 1.0)):
    rank_c = controllability_space(diag, (0, 0), endpoint).rank
    print(f"t = {endpoint}: rank C = {rank_c}, rank G = {rank_g}, "
          f"equal = {rank_c == rank_g}")

basis = controllability_space(diag, (0, 0), (1, 0))
print(f"\ncontrollability space along t2=0: rank {basis.rank}, "
      f"basis column {basis.columns[:, 0]}")

# Transfer feasibility is membership of x0 - chi(t0,t) y in that image.
for x0 in ((1.0, 0.0), (0.0, 1.0)):
    d = decide_transfer(diag, (0, 0), x0, (1, 0), (0, 0))
    print(f"steer {x0} -> 0 over t2=0: feasible={d.feasible} "
          f"(residual {d.residual:.3g})")

# On the cyclic system the gramian integral is path dependent, so the
# constructor refuses; an explicit curve turns refusal into a labelled
# path-dependent value.
cyclic = LinearSystem.from_data(
    3, 3, 1, [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]] * 3,
    [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]])
print("\ncyclic three-time system:")
try:
    controllability_gramian(cyclic, (0, 0, 0), (1, 1, 1))
except CompatibilityError as exc:
    print(f"  refused: {exc}")
segment = PolylineCurve(np.array([[0, 0, 0], [1, 1, 1]], dtype=float))
bent = PolylineCurve(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=float))
a = controllability_gramian(cyclic, (0, 0, 0), (1, 1, 1), force_curve=segment)
b = controllability_gramian(cyclic, (0, 0, 0), (1, 1, 1), force_curve=bent)
print(f"  forced values along two curves differ by "
      f"{np.linalg.norm(a.value - b.value):.4f} (path dependence witnessed)")
