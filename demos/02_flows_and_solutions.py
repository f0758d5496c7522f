"""Fundamental matrices and the four Cauchy solvers.

chi(t, t0) propagates states across multitime; its algebraic identities
(cocycle, inverse, adjoint pairing) make the solvers below one-liners.
"""

import math

import numpy as np

from mtcontrol import (LinearSystem, MatrixFamily, fundamental_matrix,
                       solve_adjoint, solve_affine, solve_controlled,
                       solve_homogeneous)

diag = LinearSystem.from_data(
    2, 2, 1,
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1], [0]], [[0], [1]]])

t0, t = (0.0, 0.0), (1.0, 0.0)
fm = fundamental_matrix(diag, t, t0)
print("chi((1,0),(0,0)) =")
print(np.array_str(fm.value, precision=6))
print(f"condition number: {fm.condition_number:.4g}")
print(f"closed form is diag(e, 1); e = {math.e:.6f}\n")

x = solve_homogeneous(diag, t0, (1, 1), t)
phi = solve_adjoint(diag, t0, (1, 1), t)
print(f"homogeneous solution from x0=(1,1):  {x}")
print(f"adjoint solution from phi0=(1,1):    {phi}")
print(f"pairing <x,phi> = {x @ phi:.12f} (equals <x0,phi0> = 2)\n")

# Affine forcing F_a = N_a u_a with u = (1, 0): the first component obeys
# the scalar ODE x' = x + 1, so x(1) = e - 1.
F = MatrixFamily.from_data([[[1], [0]], [[0], [0]]], 2)
x_affine = solve_affine(diag, F, t0, (0, 0), t)
print(f"affine solution:     {x_affine}  (expected ({math.e - 1:.6f}, 0))")

# The same forcing as a control: the family u of k x 1 columns (k = 1).
u = MatrixFamily.from_data([[1], [0]], 2)
x_controlled = solve_controlled(diag, u, t0, (0, 0), t)
print(f"controlled solution: {x_controlled}  (same closed form)")

# Time-varying coefficients work too; entries are expression strings and
# chi is integrated along the straight segment (path independent because
# the commutation condition holds).
varying = LinearSystem.from_data(
    2, 2, 1,
    [[[0, "2*t1"], [0, 0]], [[0, "3*t2^2"], [0, 0]]],
    [[[1], [0]], [[0], [1]]],
    domain=[[-2, 2], [-2, 2]])
fm = fundamental_matrix(varying, (1.5, 1.0), (0.0, 0.0))
print("\ntime-varying chi((1.5,1),(0,0)) =")
print(np.array_str(fm.value, precision=6))
print("closed form: [[1, 1.5^2 + 1], [0, 1]]")
