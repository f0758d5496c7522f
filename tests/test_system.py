import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcontrol import (CompatibilityError, ControlFamily, LinearSystem,
                       MatrixFamily, check_control_compat,
                       check_F_compatibility, check_gramian_compat,
                       check_M_commutation)
from mtcontrol.expr import ExprDomainError, Num
from mtcontrol.system import MatrixFunction


def test_commutation_passes_cyclic(cyclic_sys):
    report = check_M_commutation(cyclic_sys)
    assert report.passed
    assert report.max_residual == 0.0


def test_commutation_passes_diag(diag_sys):
    report = check_M_commutation(diag_sys)
    assert report.passed
    assert report.max_residual == 0.0


def test_commutation_fails_on_nilpotent_pair():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[[0], [0]], [[0], [0]]])
    report = check_M_commutation(sys)
    assert not report.passed
    # commutator is diag(1, -1), Frobenius norm sqrt(2)... times 2? verified:
    # M1 M2 = diag(1,0), M2 M1 = diag(0,1), difference diag(1,-1), norm sqrt(2)
    assert report.max_residual == pytest.approx(np.sqrt(2.0))
    assert report.worst_pair == (1, 2)


def test_commutation_time_varying_pass_and_fail():
    domain = [[0, 1], [0, 1]]
    # M1 = t2 * I, M2 = t1 * I: dM1/dt2 = I = dM2/dt1 and scalars commute
    good = LinearSystem.from_data(
        2, 2, 1,
        [[["t2", 0], [0, "t2"]], [["t1", 0], [0, "t1"]]],
        [[[1], [0]], [[0], [1]]], domain=domain)
    assert check_M_commutation(good).passed
    # M1 = t2 * I, M2 = 0: dM1/dt2 = I but dM2/dt1 = 0
    bad = LinearSystem.from_data(
        2, 2, 1,
        [[["t2", 0], [0, "t2"]], [[0, 0], [0, 0]]],
        [[[1], [0]], [[0], [1]]], domain=domain)
    report = check_M_commutation(bad)
    assert not report.passed
    assert report.max_residual == pytest.approx(np.sqrt(2.0))


def test_F_compat_with_forcing_from_constant_control(diag_sys):
    # F_a = N_a u_a with u = (1, 0): F1 = e1, F2 = 0; both sides vanish
    F = MatrixFamily.from_data([[[1], [0]], [[0], [0]]], 2)
    assert check_F_compatibility(diag_sys, F).passed


def test_F_compat_zero_trivially_passes(diag_sys):
    F = MatrixFamily.from_data([[[0], [0]], [[0], [0]]], 2)
    report = check_F_compatibility(diag_sys, F)
    assert report.passed
    assert report.max_residual == 0.0


def test_F_compat_fails():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    F = MatrixFamily.from_data([[[0], [0]], [[1], [0]]], 2)
    report = check_F_compatibility(sys, F)
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0)


def test_F_compat_shape_validation(diag_sys):
    F = MatrixFamily.from_data([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], 2)
    with pytest.raises(ValueError):
        check_F_compatibility(diag_sys, F)


def test_control_compat_separated_variables_pass(diag_sys):
    u = ControlFamily.from_data([["t1"], ["t2"]], 2)
    sys = LinearSystem(diag_sys.m, diag_sys.n, diag_sys.k, diag_sys.M,
                       diag_sys.N, domain=np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert check_control_compat(sys, u).passed


def test_control_compat_mixed_variables_fail(diag_sys):
    # u1 depending on t2 breaks the symmetry: N1 du1/dt2 = e1 != 0
    u = ControlFamily.from_data([["t2"], ["t1"]], 2)
    sys = LinearSystem(diag_sys.m, diag_sys.n, diag_sys.k, diag_sys.M,
                       diag_sys.N, domain=np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert not check_control_compat(sys, u).passed


def test_control_compat_rejects_nonzero_constant_on_cyclic(cyclic_sys):
    u = ControlFamily.from_data([[1], [1], [1]], 3)
    report = check_control_compat(cyclic_sys, u)
    assert not report.passed


def test_zero_control_always_passes(diag_sys, cyclic_sys):
    for sys in (diag_sys, cyclic_sys):
        u = ControlFamily.zero(sys.m, sys.k)
        report = check_control_compat(sys, u)
        assert report.passed
        assert report.max_residual == 0.0


def test_gramian_compat_pass_diag(diag_sys):
    assert check_gramian_compat(diag_sys).passed


def test_gramian_compat_fail_cyclic(cyclic_sys):
    report = check_gramian_compat(cyclic_sys)
    assert not report.passed
    # worst pair residual: direct arithmetic on the permutation matrix
    assert report.max_residual == pytest.approx(2.0)


def test_gramian_compat_zero_N_passes(cyclic_sys):
    sys = LinearSystem.from_data(
        3, 3, 1, [m(np.zeros(3)).tolist() for m in cyclic_sys.M],
        [np.zeros((3, 1)).tolist()] * 3)
    report = check_gramian_compat(sys)
    assert report.passed
    assert report.max_residual == 0.0


def test_m_equals_one_checks_pass_vacuously():
    sys = LinearSystem.from_data(1, 2, 1,
                                 [[[0, 1], [0, 0]]], [[[0], [1]]])
    for check in (check_M_commutation, check_gramian_compat):
        report = check(sys)
        assert report.passed
        assert report.max_residual == 0.0
        assert report.worst_pair is None


def test_condition_report_truthiness(diag_sys):
    assert bool(check_M_commutation(diag_sys)) is True


def test_compatibility_error_carries_report(cyclic_sys):
    report = check_gramian_compat(cyclic_sys)
    err = CompatibilityError(report)
    assert err.report is report
    assert "gramian" in str(err)


def test_time_varying_system_requires_domain():
    with pytest.raises(ValueError):
        LinearSystem.from_data(2, 1, 1, [["t1"], ["t2"]], [[1], [1]])


def test_dimension_validation():
    with pytest.raises(ValueError):
        LinearSystem.from_data(2, 2, 1,
                               [[[1, 0], [0, 0]]],  # only one member
                               [[[1], [0]], [[0], [1]]])
    with pytest.raises(ValueError):
        LinearSystem.from_data(0, 1, 1, [], [])


def test_contains_and_grid(diag_sys):
    sys = LinearSystem(2, 2, 1, diag_sys.M, diag_sys.N,
                       domain=np.array([[0.0, 1.0], [0.0, 2.0]]))
    assert sys.contains((0.5, 1.0))
    assert not sys.contains((1.5, 1.0))
    grid = sys.grid_points()
    assert grid.shape == (25, 2)
    assert grid.min(axis=0).tolist() == [0.0, 0.0]
    assert grid.max(axis=0).tolist() == [1.0, 2.0]


def test_constant_family_evaluation_and_diff():
    fam = MatrixFamily.from_data([[["t1*t1", 0], [0, 1]],
                                  [[0, 0], [0, 0]]], 2)
    assert not fam.is_constant
    value = fam[0]((2.0, 0.0))
    assert value[0, 0] == 4.0
    d = fam[0].diff(1)((2.0, 0.0))
    assert d[0, 0] == pytest.approx(4.0)
    assert fam[1].is_constant


@st.composite
def plain_matrices(draw):
    """Nested lists of floats, of ints, of bools, or of all three mixed."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    element = draw(st.sampled_from([
        finite, st.integers(-2 ** 60, 2 ** 60), st.booleans(),
        st.one_of(finite, st.integers(-9, 9), st.booleans())]))
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(element, min_size=c, max_size=c),
                         min_size=r, max_size=r))


@settings(max_examples=60, deadline=None)
@given(plain_matrices())
def test_plain_number_matrix_equals_the_expression_path(entries):
    values = np.array(entries, dtype=float)
    plain = MatrixFunction(entries, 2)
    # Num objects take the per-entry expression path
    wrapped = MatrixFunction([[Num(float(x)) for x in row] for row in entries], 2)
    assert plain.is_constant and wrapped.is_constant
    assert plain.shape == wrapped.shape == values.shape
    points = np.array([[0.0, 0.0], [1.0, -2.0]])
    assert plain(points).tobytes() == wrapped(points).tobytes()
    assert plain((0.5, 0.5)).tobytes() == wrapped((0.5, 0.5)).tobytes()
    for beta in (1, 2):
        d = plain.diff(beta)
        assert d.is_constant and d.shape == values.shape
        assert d((0.0, 0.0)).tobytes() == wrapped.diff(beta)((0.0, 0.0)).tobytes()


@pytest.mark.parametrize("entries, where", [
    ([[1, 2], [math.inf, math.nan]], "(1, 0)"),
    ([[1, -math.inf], [math.nan, 2]], "(0, 1)"),
    ([1.0, 2.0, math.nan], "(2, 0)"),
    ([["1", 2], [math.inf, math.nan]], "(1, 0)"),  # expression path
], ids=["plain", "plain_first_row", "column", "expression"])
def test_non_finite_constant_names_the_first_entry_in_row_major_order(entries, where):
    with pytest.raises(ValueError) as exc:
        MatrixFunction(entries, 1)
    assert str(exc.value) == f"non-finite constant entry at {where}"


@pytest.mark.parametrize("entries, message", [
    ([[1, None], [None, 2]], "matrix entry at (0, 1) must be a number or an "
                             "expression, got None"),
    ([["t1", 0], [[2], "t1"]], "matrix entry at (1, 0) must be a number or an "
                               "expression, got [2]"),
    ([[1, 2], [3]], "matrix rows must all have the same length"),
], ids=["null", "nested_list", "ragged"])
def test_malformed_entries_are_a_named_error(entries, message):
    with pytest.raises(ValueError) as exc:
        MatrixFunction(entries, 1)
    assert str(exc.value) == message


def test_matrix_function_copies_a_plain_array():
    source = np.ones((2, 2))
    mf = MatrixFunction(source, 1)
    source[0, 0] = 5.0
    assert mf((0.0,))[0, 0] == 1.0


def test_time_varying_check_differentiates_once_per_pair(monkeypatch):
    from mtcontrol.system import MatrixFunction
    # separated variables on m = 3 axes: every pair commutes
    M = [[["0.5*t1", 0, 0], [0, 0, 0], [0, 0, 0]],
         [[0, 0, 0], [0, "cos(t2)", 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, "exp(-t3)"]]]
    sys = LinearSystem.from_data(3, 3, 1, M, [[[1], [0], [0]]] * 3,
                                 domain=[[-1, 2]] * 3)
    calls = []
    original = MatrixFunction.diff

    def counting(self, beta):
        calls.append(beta)
        return original(self, beta)

    monkeypatch.setattr(MatrixFunction, "diff", counting)
    report = check_M_commutation(sys)
    assert report.passed and report.worst_point is None
    assert len(calls) <= 2 * 3  # two per pair, not two per pair and grid point


# The benchmark's coefficient menu: each kind maps (c, axis) to the entry
# text and its math reference.  The last two stay at least 0.3 * e^-2 away
# from zero on [-1, 2], so they serve as denominators.
MENU = {
    "lin": lambda c, a: (f"{c!r}*t{a}", lambda t: c * t[a - 1]),
    "cos": lambda c, a: (f"{c!r}*cos(t{a})", lambda t: c * math.cos(t[a - 1])),
    "exp": lambda c, a: (f"{c!r}*exp(-t{a})", lambda t: c * math.exp(-t[a - 1])),
    "quad": lambda c, a: (f"{c!r}*(1+t{a}^2)", lambda t: c * (1 + t[a - 1] ** 2)),
}


@st.composite
def menu_term(draw, m, kinds=tuple(MENU)):
    kind = draw(st.sampled_from(kinds))
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 1.0))
    return MENU[kind](c, draw(st.integers(1, m)))


@st.composite
def menu_entry(draw, m):
    """A constant, a menu term, a product of two, or a quotient by a
    nonvanishing one."""
    shape = draw(st.sampled_from(["constant", "term", "product", "quotient"]))
    if shape == "constant":
        c = draw(st.floats(-2.0, 2.0))
        return repr(c), lambda t: c
    f_text, f = draw(menu_term(m))
    if shape == "term":
        return f_text, f
    g_text, g = draw(menu_term(m, ("exp", "quad") if shape == "quotient" else tuple(MENU)))
    if shape == "product":
        return f"({f_text})*({g_text})", lambda t: f(t) * g(t)
    return f"({f_text})/({g_text})", lambda t: f(t) / g(t)


@st.composite
def menu_matrix_and_batch(draw):
    m = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = [[draw(menu_entry(m)) for _ in range(cols)] for _ in range(rows)]
    P = draw(st.integers(1, 12))
    points = np.array(draw(st.lists(st.lists(st.floats(-1.0, 2.0), min_size=m, max_size=m),
                                    min_size=P, max_size=P)))
    return m, entries, points


@settings(derandomize=True, max_examples=80, deadline=None)
@given(menu_matrix_and_batch())
def test_batched_matrix_function_matches_math_reference(case):
    m, entries, points = case
    mf = MatrixFunction([[text for text, _ in row] for row in entries], m)
    batch = mf(points)
    reference = np.array([[[f(p) for _, f in row] for row in entries] for p in points])
    assert batch.shape == (len(points), len(entries), len(entries[0]))
    np.testing.assert_allclose(batch, reference, rtol=1e-14, atol=0)
    for p, value in zip(points, batch):
        np.testing.assert_allclose(mf(p), value, rtol=1e-14, atol=0)


# (entry, singular coordinate, message) for each kind of singularity.
SINGULARITIES = [
    ("log(t{a})", st.floats(-10.0, 0.0), "log of non-positive value {bad}"),
    ("exp(t{a})", st.floats(710.0, 1e4), "overflow in exp({bad})"),
    ("1/t{a}", st.just(0.0), "division by zero in (1.0 / t{a})"),
    ("t{a}^3", st.floats(1e103, 1e300), "expression evaluated to inf"),
]


@st.composite
def singular_batch(draw):
    m = draw(st.integers(1, 3))
    a = draw(st.integers(1, m))
    text, bad_values, message = draw(st.sampled_from(SINGULARITIES))
    bad = draw(bad_values)
    # fillers stay finite at every singular coordinate drawn below
    entries = [[draw(menu_term(m, ("lin", "cos", "exp")))[0] for _ in range(2)]
               for _ in range(2)]
    entries[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = text.format(a=a)
    P = draw(st.integers(1, 12))
    points = np.array(draw(st.lists(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m),
                                    min_size=P, max_size=P)))
    points[draw(st.integers(0, P - 1)), a - 1] = bad
    return m, entries, points, message.format(a=a, bad=bad)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(singular_batch())
def test_one_singular_point_anywhere_in_a_batch_raises(case):
    m, entries, points, message = case
    with pytest.raises(ExprDomainError) as exc:
        MatrixFunction(entries, m)(points)
    assert str(exc.value) == message
