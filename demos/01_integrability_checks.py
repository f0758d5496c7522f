"""Integrability and compatibility checks on the two reference systems.

The diagonal two-time system (m=2, n=2, k=1) passes every condition, so
all downstream machinery (flows, gramians, synthesis) is available.  The
cyclic three-time system (m=3, n=3, k=1) commutes but fails the gramian
compatibility condition, which is exactly what makes its gramian integral
path dependent and its control space trivial.
"""

import numpy as np

from mtcontrol import (LinearSystem, MatrixFamily, check_control_compat,
                       check_gramian_compat, check_M_commutation)

diag = LinearSystem.from_data(
    2, 2, 1,
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1], [0]], [[0], [1]]])

cyclic_M = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
cyclic = LinearSystem.from_data(
    3, 3, 1, [cyclic_M] * 3,
    [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]])

for name, sys in (("diagonal two-time", diag), ("cyclic three-time", cyclic)):
    print(f"== {name} ==")
    for report in (check_M_commutation(sys), check_gramian_compat(sys)):
        verdict = "pass" if report.passed else "FAIL"
        print(f"  {report.condition_name}: {verdict} "
              f"(residual {report.max_residual:.3g})")

# A control is a family of k x 1 columns (here k = 1), and its membership in
# the control space is itself a compatibility check.  On the cyclic system
# every nonzero constant control is rejected: the space is {0}.
print("\ncontrol-space membership on the cyclic system:")
for u_data in ([[0], [0], [0]], [[1], [1], [1]], [[1], [0], [0]]):
    u = MatrixFamily.from_data(u_data, 3)
    report = check_control_compat(cyclic, u)
    flat = np.array(u_data).ravel().tolist()
    print(f"  u = {flat}: {'accepted' if report.passed else 'rejected'}")

# Separated-variable controls u1 = f1(t1), u2 = f2(t2) are exactly the ones
# the diagonal system accepts.
diag_boxed = LinearSystem.from_data(
    2, 2, 1,
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1], [0]], [[0], [1]]],
    domain=[[0, 1], [0, 1]])
print("\ncontrol-space membership on the diagonal system:")
for u_data in ([["t1"], ["t2"]], [["t2"], ["t1"]]):
    u = MatrixFamily.from_data(u_data, 2)
    report = check_control_compat(diag_boxed, u)
    print(f"  u = {u_data}: {'accepted' if report.passed else 'rejected'}")
