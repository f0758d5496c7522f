import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcontrol import (CompatibilityError, ConditionReport, ControlFamily,
                       LinearSystem, MatrixFamily, SynthesizedControl,
                       check_control_compat, check_F_compatibility,
                       check_gramian_compat, check_M_commutation)
from mtcontrol.core import NumericConfig
from mtcontrol import system as system_module
from mtcontrol.expr import ExprDomainError, Num
from mtcontrol.system import MatrixFunction, _norms


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


def test_system_conditions_are_decided_once_per_config(monkeypatch):
    sys = LinearSystem.from_data(
        2, 2, 1, [[["t1", 0], [0, 0]], [[0, 0], [0, "t2"]]],
        [[["t2"], [0]], [[0], [1]]], domain=[[0, 1], [0, 1]])
    evaluated = []
    original = system_module._symmetry_report

    def counting(name, *args):
        evaluated.append(name)
        return original(name, *args)

    monkeypatch.setattr(system_module, "_symmetry_report", counting)
    for check in (check_M_commutation, check_gramian_compat):
        report = check(sys)
        assert check(sys) is report
        assert check(sys, cfg=NumericConfig()) is report  # an equal config
        coarse = check(sys, NumericConfig(grid_samples_per_axis=3))
        assert check(sys, NumericConfig(grid_samples_per_axis=3)) is coarse
    assert evaluated == ["M-commutation (Eq. 6)"] * 2 + \
        ["gramian-compatibility (Eq. 17)"] * 2
    # every caller gets the kept report, so its worst point is read-only
    nilpotent = LinearSystem.from_data(2, 2, 1, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                                       [[[0], [0]], [[0], [0]]])
    assert not check_M_commutation(nilpotent).worst_point.flags.writeable


def test_grid_is_built_once_per_sample_count(diag_sys):
    sys = LinearSystem(2, 2, 1, diag_sys.M, diag_sys.N,
                       domain=np.array([[0.0, 1.0], [-1.0, 2.0]]))
    grid = sys.grid_points()
    assert sys.grid_points() is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 5.0
    coarse = sys.grid_points(NumericConfig(grid_samples_per_axis=3))
    assert coarse.shape == (9, 2) and grid.shape == (25, 2)
    assert sys.grid_points(NumericConfig(grid_samples_per_axis=3)) is coarse
    mesh = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-1, 2, 5), indexing="ij")
    assert np.array_equal(grid, np.stack([g.ravel() for g in mesh], axis=-1))


def test_boolean_domain_is_rejected(diag_sys):
    with pytest.raises(ValueError, match="domain bounds must be numbers"):
        LinearSystem(2, 2, 1, diag_sys.M, diag_sys.N,
                     domain=[[False, True], [0, 1]])


@pytest.mark.parametrize("entries", [
    [["t1*t1", 0], ["3*t1", "t2"]],
    [["sin(t1)*t2", "exp(-t2)"], ["log(t1 + 2)", 7]],
    [["t1", "t1/t2"], ["(t1 + t2)^3", "cos(t1*t2)"]],
    [[1, 2], [3, 4]],
])
@pytest.mark.parametrize("beta", [1, 2])
def test_diff_equals_the_validating_path(entries, beta):
    # the reference builds the derivative through MatrixFunction.__init__
    f = MatrixFunction(entries, 2)
    d = np.zeros(f.shape, dtype=object)
    for i, j, e in f._varying:
        d[i, j] = e.diff(beta)
    reference = MatrixFunction(d, 2)
    got = f.diff(beta)
    assert got._constant.tobytes() == reference._constant.tobytes()
    assert got._varying == reference._varying
    T = np.array([[0.5, 1.5], [1.0, 2.0]])
    assert got(T).tobytes() == reference(T).tobytes()


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
    """Nested lists of floats, of ints, or of both mixed."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    element = draw(st.sampled_from([
        finite, st.integers(-2 ** 60, 2 ** 60),
        st.one_of(finite, st.integers(-9, 9))]))
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
    ([[1, True]], "matrix entry at (0, 1) must be a number or an expression, got True"),
    ([[0.5], [False]], "matrix entry at (1, 0) must be a number or an "
                       "expression, got False"),
    (np.array([[False, True]]), "matrix entry at (0, 0) must be a number or an "
                                "expression, got False"),
    ([["t1", True]], "matrix entry at (0, 1) must be a number or an expression, "
                     "got True"),
], ids=["null", "nested_list", "ragged", "bool_among_ints", "bool_among_floats",
        "bool_array", "bool_beside_expression"])
def test_malformed_entries_are_a_named_error(entries, message):
    with pytest.raises(ValueError) as exc:
        MatrixFunction(entries, 1)
    assert str(exc.value) == message


def test_matrix_function_copies_a_plain_array():
    source = np.ones((2, 2))
    mf = MatrixFunction(source, 1)
    source[0, 0] = 5.0
    assert mf((0.0,))[0, 0] == 1.0


def test_control_family_is_a_family_of_columns():
    with pytest.raises(ValueError, match="a family needs at least one member"):
        ControlFamily([])
    with pytest.raises(ValueError, match="control members must be column "
                                         "vectors of equal size"):
        ControlFamily([MatrixFunction([[1, 2]], 2)] * 2)
    with pytest.raises(ValueError, match="family members must share a shape"):
        ControlFamily([MatrixFunction([[1]], 2), MatrixFunction([[1], [2]], 2)])
    u = ControlFamily.from_data([["t1", 0], [1, 2]], 2)
    assert isinstance(u, MatrixFamily)
    assert (u.m, u.k, u.shape, u.is_constant) == (2, 2, (2, 1), False)
    assert u((1.0, 3.0)).tolist() == [[[1.0], [0.0]], [[1.0], [2.0]]]


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
def menu_term(draw, m, kinds=tuple(MENU), axis=None):
    kind = draw(st.sampled_from(kinds))
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 1.0))
    return MENU[kind](c, axis or draw(st.integers(1, m)))


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


# --- the per-pair formulas as the reference for the batched checks ----------

def _reference_pair_check(name, sys, sides_fn, constant, cfg):
    """Evaluate sides_fn(alpha, beta, T) -> (lhs, rhs) for all pairs
    alpha < beta, one pair at a time, and reduce |lhs - rhs| to a report."""
    pairs = list(itertools.combinations(range(1, sys.m + 1), 2))
    if not pairs:
        return ConditionReport(name, 0.0, True, None, None)
    T = np.zeros(sys.m) if constant else sys.grid_points(cfg)
    points = np.atleast_2d(T)
    residuals = np.empty((len(points), len(pairs)))
    scale = 0.0
    for p, (a, b) in enumerate(pairs):
        lhs, rhs = sides_fn(a, b, T)
        residuals[:, p] = _norms(lhs - rhs)
        scale = np.maximum(scale, np.maximum(_norms(lhs), _norms(rhs)))
    worst = int(np.argmax(residuals))
    r = float(residuals.flat[worst])
    passed = bool(r <= cfg.residual_rel_tol * (1.0 + float(np.max(scale))))
    if r == 0.0:
        return ConditionReport(name, 0.0, passed, None, None)
    return ConditionReport(name, r, passed, points[worst // len(pairs)],
                           pairs[worst % len(pairs)])


def reference_M_commutation(sys, cfg):
    constant = sys.M.is_constant

    def sides(a, b, T):
        Ma, Mb = sys.M[a - 1](T), sys.M[b - 1](T)
        lhs, rhs = Ma @ Mb, Mb @ Ma
        if not constant:
            lhs = lhs + sys.M[a - 1].diff(b)(T)
            rhs = rhs + sys.M[b - 1].diff(a)(T)
        return lhs, rhs

    return _reference_pair_check("M-commutation (Eq. 6)", sys, sides, constant, cfg)


def reference_F_compatibility(sys, F, cfg):
    constant = sys.M.is_constant and F.is_constant

    def sides(a, b, T):
        lhs = sys.M[a - 1](T) @ F[b - 1](T)
        rhs = sys.M[b - 1](T) @ F[a - 1](T)
        if not constant:
            lhs = lhs + F[a - 1].diff(b)(T)
            rhs = rhs + F[b - 1].diff(a)(T)
        return lhs, rhs

    return _reference_pair_check("F-compatibility (Eq. 7)", sys, sides, constant, cfg)


def reference_control_compat(sys, u, cfg):
    constant = sys.is_constant and u.is_constant

    def du(a, b, T):
        return u.derivatives(T, np.array([a - 1]), np.array([b - 1]))[0]

    def sides(a, b, T):
        Na, Nb = sys.N[a - 1](T), sys.N[b - 1](T)
        ua, ub = u(T)[a - 1], u(T)[b - 1]
        lhs = sys.M[a - 1](T) @ (Nb @ ub) + Na @ du(a, b, T)
        rhs = sys.M[b - 1](T) @ (Na @ ua) + Nb @ du(b, a, T)
        if not sys.N.is_constant:
            lhs = lhs + sys.N[a - 1].diff(b)(T) @ ua
            rhs = rhs + sys.N[b - 1].diff(a)(T) @ ub
        return lhs, rhs

    return _reference_pair_check("control-compatibility (Eq. 14)", sys, sides,
                                 constant, cfg)


def reference_gramian_compat(sys, cfg):
    constant = sys.is_constant

    def sides(a, b, T):
        Ma, Mb = sys.M[a - 1](T), sys.M[b - 1](T)
        Na, Nb = sys.N[a - 1](T), sys.N[b - 1](T)
        lhs = Ma @ Nb @ Nb.swapaxes(-1, -2) + Nb @ Nb.swapaxes(-1, -2) @ Ma.swapaxes(-1, -2)
        rhs = Mb @ Na @ Na.swapaxes(-1, -2) + Na @ Na.swapaxes(-1, -2) @ Mb.swapaxes(-1, -2)
        if not sys.N.is_constant:
            dNa = sys.N[a - 1].diff(b)(T)
            dNb = sys.N[b - 1].diff(a)(T)
            lhs = lhs + dNa @ Na.swapaxes(-1, -2) + Na @ dNa.swapaxes(-1, -2)
            rhs = rhs + dNb @ Nb.swapaxes(-1, -2) + Nb @ dNb.swapaxes(-1, -2)
        return lhs, rhs

    return _reference_pair_check("gramian-compatibility (Eq. 17)", sys, sides,
                                 constant, cfg)


@st.composite
def check_case(draw):
    """A system, forcing F, control u and settings, m = 1..3.  Each family
    is constant, of menu entries, or of menu terms in the member's own
    variable (dA_a/dt^b = 0 for b != a); its members are drawn apart or
    shared across alpha, so conditions both fail and hold."""
    m = draw(st.sampled_from([2, 3, 1]))  # m = 1 is vacuous: draw it least
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    number = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0))
    varying = []

    def entry(kind, a):
        if kind == "constant":
            return draw(number)
        varying.append(True)
        return draw(menu_term(m, axis=a) if kind == "own_axis" else menu_entry(m))[0]

    def family(rows, cols):
        kind = draw(st.sampled_from(["constant", "menu", "own_axis"]))
        members = [[[entry(kind, a) for _ in range(cols)] for _ in range(rows)]
                   for a in range(1, m + 1)]
        return [members[0]] * m if draw(st.booleans()) else members

    M, N, F = family(n, n), family(n, k), family(n, 1)
    # a short RK4 keeps the synthesized control's chi cheap; the grid size
    # only changes the number of points
    cfg = NumericConfig(grid_samples_per_axis=draw(st.integers(1, 5)),
                        ode_steps_per_segment=4)
    box = [[-1.0, 2.0]] * m
    sys = LinearSystem.from_data(m, n, k, M, N, domain=box if varying else
                                 draw(st.sampled_from([None, box])))
    kind = draw(st.sampled_from(["zero", "family", "synthesized"]))
    if kind == "zero":
        u = ControlFamily.zero(m, k)
    elif kind == "family":
        u = ControlFamily.from_data(family(k, 1), m)
    else:
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        u = SynthesizedControl(sys, np.zeros(m), v, True,
                               check_gramian_compat(sys, cfg), cfg)
    return sys, MatrixFamily.from_data(F, m), u, cfg


def _same_report(new, reference):
    assert new.condition_name == reference.condition_name
    assert new.passed is reference.passed
    assert new.max_residual == reference.max_residual or (
        math.isnan(new.max_residual) and math.isnan(reference.max_residual))
    if reference.worst_point is None:
        assert new.worst_point is None
    else:
        assert new.worst_point.tobytes() == reference.worst_point.tobytes()
    assert new.worst_pair == reference.worst_pair
    if new.worst_pair is not None:
        assert all(type(i) is int for i in new.worst_pair)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(check_case())
def test_batched_checks_equal_the_per_pair_formulas_bit_for_bit(case):
    sys, F, u, cfg = case
    for new, reference in [
            (check_M_commutation(sys, cfg), reference_M_commutation(sys, cfg)),
            (check_F_compatibility(sys, F, cfg), reference_F_compatibility(sys, F, cfg)),
            (check_control_compat(sys, u, cfg), reference_control_compat(sys, u, cfg)),
            (check_gramian_compat(sys, cfg), reference_gramian_compat(sys, cfg))]:
        _same_report(new, reference)
