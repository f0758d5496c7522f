"""Minimum-norm control synthesis and round-trip verification.

For a feasible transfer (t0, x0) -> (t, y) the synthesized control is
u_a(s) = N_a(s)' chi(t0, s)' v with v the minimum-norm solution of
C(t0, t) v = chi(t0, t) y - x0.  Running the controlled solver with that
family closes the loop.
"""

from mtcontrol import (CompatibilityError, LinearSystem, SynthesizedControl,
                       synthesize_transfer, verify_transfer)

diag = LinearSystem.from_data(
    2, 2, 1,
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1], [0]], [[0], [1]]])

t0, t = (0.0, 0.0), (1.0, 0.0)
x0, y = (1.0, 0.0), (0.0, 0.0)

result = synthesize_transfer(diag, t0, x0, t, y)
print(f"feasible: {result.feasible}")
print(f"v = {result.control.v}")
print(result.control.describe())

check = verify_transfer(diag, result.control, t0, x0, t, target=y)
print(f"endpoint after applying the control: {check.endpoint}")
print(f"distance to target: {check.error:.3e}\n")

# The control has a closed form here: u1(s) = v1 * e^{-s1}, u2 = 0.
print("sampled control values:")
for row in result.control.sample([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]):
    print(f"  t = {row['t']}: u = {row['u']}")

# An infeasible request is reported, not silently approximated: steering
# the second state component is impossible along t2 = 0.
bad = synthesize_transfer(diag, t0, (0.0, 1.0), t, y)
print(f"\ninfeasible request: feasible={bad.feasible}, "
      f"residual={bad.residual:.3f}")

# Candidate controls can be built directly from any weight vector v.  Each
# is a member of the control space by construction: building one requires
# M-commutation (Eq. 6) and, for v != 0, gramian compatibility (Eq. 17).
u = SynthesizedControl(diag, t0, (1.0, 0.0))
print("\ncandidate control for v=e1:")
print(f"  u1((0.5, 0)) = {u((0.5, 0.0))[0, :, 0]}  (= e^-0.5)")
print(f"  u2((0.5, 0)) = {u((0.5, 0.0))[1, :, 0]}")

# On the cyclic counter-example Eq. 17 fails: only the zero control exists.
M = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
cyclic = LinearSystem.from_data(
    3, 3, 1, [M, M, M], [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]])
try:
    SynthesizedControl(cyclic, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
except CompatibilityError as exc:
    print(f"\ncyclic system, v = (1, 1, 1): refused, {exc}")
