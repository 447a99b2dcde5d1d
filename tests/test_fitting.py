import numpy as np
import pytest

from rwre.clt import quenched_mean_variance
from rwre.environment import EnvironmentModel, StepSupport, make_environment
from rwre.envprocess import ergodic_runs, variation_proxy
from rwre.fitting import (check_grid, fit_exponent, integer, nested, pmf,
                          real, symmetric)
from rwre.green import (PerturbedChainSpec, SymmetricWalk1D,
                        product_symmetric_base, simple_walk)
from rwre.models import dirichlet_drift_model, drift_model, support_2d
from rwre.pair import (coupled_triple, first_joint_regeneration,
                       intersection_curve, sample_Ybar_chain)
from rwre.walk import simulate, simulate_finals_many


def test_check_grid_sorts_distinct_ints():
    assert check_grid([64, 4, 16], 1, "n_grid") == [4, 16, 64]
    assert check_grid(np.array([3, 0]), 0, "r_grid") == [0, 3]
    assert check_grid((8,), 1, "a_grid") == [8]
    assert all(type(v) is int for v in check_grid(np.array([2, 1]), 1, "g"))


@pytest.mark.parametrize("values, lo, least", [
    ([], 1, 1),            # empty
    ([0, 4], 1, 1),        # below lo
    ([-1, 4], 0, 1),
    ([4, 4], 1, 1),        # repeated
    ([8, 4, 8], 1, 2),
    ([4], 1, 2),           # too few for a fit
])
def test_check_grid_names_the_grid(values, lo, least):
    with pytest.raises(ValueError, match=f"n_grid entries must be >= {lo}"):
        check_grid(values, lo, "n_grid", least=least)


def test_check_grid_refuses_a_float_entry():
    # [2.7, 4.2] was truncated to [2, 4]
    with pytest.raises(ValueError, match="ell_grid must be an integer"):
        check_grid([2.7, 4.2], 1, "ell_grid")


def test_check_grid_refuses_a_string_entry():
    # ["4", 8] was parsed to [4, 8]
    with pytest.raises(ValueError, match="n_grid must be an integer"):
        check_grid(["4", 8], 1, "n_grid")


def test_check_grid_refuses_a_bool_entry():
    # [True, 3] was read as [1, 3]
    for values in ([True, 3], np.array([True, False])):
        with pytest.raises(ValueError, match="r_grid must be an integer"):
            check_grid(values, 0, "r_grid")


def test_check_grid_reads_python_and_numpy_integers():
    assert check_grid([np.int64(8), np.uint32(2), 4], 1, "n_grid") == [2, 4, 8]
    assert check_grid(np.arange(1, 4, dtype=np.int16), 1, "g") == [1, 2, 3]


def test_fit_exponent_drops_points_without_logs():
    # n = 0 gave log 0 = -inf and a NaN slope; only n > 0, y > 0 count
    want = fit_exponent([2, 4], [2.0, 4.0])
    assert want.slope == 1.0
    assert fit_exponent([0, 2, 4], [1.0, 2.0, 4.0]) == want
    assert fit_exponent([2, 4, 8], [2.0, 4.0, 0.0]) == want


def test_fit_exponent_needs_two_distinct_n():
    # one n, however repeated, divided by zero
    assert fit_exponent([4, 4], [1.0, 2.0]) is None
    assert fit_exponent([4], [1.0]) is None
    assert fit_exponent([0, 4], [1.0, 2.0]) is None
    assert fit_exponent([], []) is None


def _chain(**kw):
    offs, probs = product_symmetric_base(simple_walk(), 2)
    return PerturbedChainSpec(**{"dimension": 2, "base_offsets": offs,
                                 "base_probs": probs, "p1": 16.0, **kw})


def _mixture(atoms):
    return EnvironmentModel(support=drift_model().support, kind="mixture",
                            atoms=atoms)


def _dirichlet(**kw):
    return EnvironmentModel(support=drift_model().support, kind="dirichlet",
                            **{"alpha": (1.0, 1.0, 1.0), **kw})


# inputs the library misread before it read them through integer, real
# and nested: each was parsed, truncated, let past a guard, or raised
# something other than a ValueError naming its field
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: EnvironmentModel(
        support=drift_model().support, kind="deterministic",
        probs=("0.5", "0.25", "0.25")), "probs", id="probs-strings"),
    pytest.param(lambda: _dirichlet(alpha=(True, 1, 1)), "alpha",
                 id="alpha-bool"),
    pytest.param(lambda: _dirichlet(floor="0.1"), "floor", id="floor-string"),
    pytest.param(lambda: _chain(p1="16"), "p1", id="p1-string"),
    pytest.param(lambda: SymmetricWalk1D((-1, 1), ("0.5", "0.5")), "probs",
                 id="walk-probs-strings"),
    pytest.param(lambda: _chain(p1=3.0, allow_low_p1="no"), "allow_low_p1",
                 id="allow_low_p1-string"),
    pytest.param(lambda: _chain(alt_offsets=[[1, 0]], alt_probs=[True]),
                 "alt_probs", id="alt_probs-bool"),
    pytest.param(lambda: support_2d([(1, 0), (0, 2**63)]), "steps",
                 id="steps-outside-int64"),
    pytest.param(lambda: StepSupport(2.0, [(1, 0), (0, 1)], (1, 0)),
                 "dimension", id="support-dimension-float"),
    pytest.param(lambda: _chain(dimension=2.0), "dimension",
                 id="chain-dimension-float"),
    pytest.param(lambda: variation_proxy(drift_model(), 0, [1], 1000), "n",
                 id="variation_proxy-n0"),
    pytest.param(lambda: variation_proxy(drift_model(), 8, [1], 1000.0),
                 "reps", id="variation_proxy-reps-float"),
    pytest.param(lambda: intersection_curve(drift_model(), [2, 4], 2.5),
                 "reps", id="intersection_curve-reps-float"),
    pytest.param(lambda: ergodic_runs(drift_model(), 8, 2.0, 1, None),
                 "n_runs", id="ergodic_runs-n_runs-float"),
    pytest.param(lambda: quenched_mean_variance(drift_model(), [4], 30.5, 2),
                 "n_env", id="quenched_mean_variance-n_env-float"),
    # x0 = (0.6, 1) was truncated to (0, 1)
    pytest.param(lambda: coupled_triple(drift_model(), (0.6, 1), 1), "x0",
                 id="coupled_triple-x0-float"),
    # each walked from (0, 0): a start was read with int()
    pytest.param(lambda: simulate(make_environment(drift_model(), 1),
                                  (0.7, 0), 3, 1), "start",
                 id="simulate-start-float"),
    pytest.param(lambda: simulate(make_environment(
        dirichlet_drift_model(), 1), (0.7, 0), 3, 1), "start",
        id="simulate-start-float-dirichlet"),
    pytest.param(lambda: simulate_finals_many(make_environment(
        dirichlet_drift_model(), 1), [[0.7, 0.0]], 3, [1]), "starts",
        id="engine-starts-float"),
    pytest.param(lambda: simulate_finals_many(make_environment(
        drift_model(), 1), np.array([[0.7, 0.0]]), 3, [1]), "starts",
        id="engine-starts-float-array"),
    pytest.param(lambda: first_joint_regeneration(make_environment(
        drift_model(), 1), (0.5, 0), (0, 0)), "x",
        id="first_joint_regeneration-x-float"),
    pytest.param(lambda: first_joint_regeneration(make_environment(
        drift_model(), 1), (0, 0), (0, 2.0)), "y",
        id="first_joint_regeneration-y-float"),
    pytest.param(lambda: sample_Ybar_chain(drift_model(), (0, 1.5), 1), "x0",
                 id="sample_Ybar_chain-x0-float"),
    # a float n took 3 steps for 2.5 or raised a TypeError
    pytest.param(lambda: simulate(make_environment(drift_model(), 1),
                                  (0, 0), 2.5, 1), "n", id="simulate-n-float"),
    pytest.param(lambda: simulate_finals_many(make_environment(
        drift_model(), 1), [[0, 0]], 2.0, [1]), "n", id="engine-n-float"),
    # fields the law does not read were accepted and ignored
    pytest.param(lambda: EnvironmentModel(
        support=drift_model().support, kind="deterministic",
        probs=(0.5, 0.25, 0.25), alpha=("x",)), "alpha",
        id="deterministic-alpha"),
    pytest.param(lambda: EnvironmentModel(
        support=drift_model().support, kind="deterministic",
        probs=(0.5, 0.25, 0.25), floor=0.5), "floor",
        id="deterministic-floor"),
    pytest.param(lambda: _dirichlet(probs=(0.5, 0.25, 0.25)), "probs",
                 id="dirichlet-probs"),
    pytest.param(lambda: _dirichlet(atoms=()), "atoms", id="dirichlet-atoms"),
    pytest.param(lambda: EnvironmentModel(
        support=drift_model().support, kind="mixture",
        atoms=(((0.5, 0.25, 0.25), 1.0),), floor=0.1), "floor",
        id="mixture-floor"),
    # malformed atoms raised errors that did not name the field: an
    # unpacking ValueError, a TypeError, an ambiguous truth value
    pytest.param(lambda: _mixture((((0.5, 0.25, 0.25),),)), "atoms",
                 id="mixture-atom-without-weight"),
    pytest.param(lambda: _mixture(5), "atoms", id="mixture-atoms-int"),
    pytest.param(lambda: _mixture(np.array([[(0.5, 0.25, 0.25), 1.0]],
                                           dtype=object)), "atoms",
                 id="mixture-atoms-array"),
    # an int beyond the float range raised OverflowError
    pytest.param(lambda: _dirichlet(floor=10**400), "floor",
                 id="floor-beyond-float"),
    pytest.param(lambda: real(-10**400, "p"), "p", id="real-beyond-float"),
])
def test_library_refuses_what_it_misread(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build()


@pytest.mark.parametrize("v", [1, np.int64(-3), np.uint64(2**63 - 1),
                               -2**63])
def test_integer_takes_python_and_numpy_ints_in_int64(v):
    assert integer(v, "k") == v and type(integer(v, "k")) is int


@pytest.mark.parametrize("v", [True, np.True_, 2.0, "2", None, 2**63,
                               np.uint64(2**63), -2**63 - 1])
def test_integer_refuses_the_rest(v):
    with pytest.raises(ValueError, match="^k must be an integer"):
        integer(v, "k")


def test_integer_and_real_bounds():
    assert integer(3, "k", lo=3) == 3
    with pytest.raises(ValueError, match=r"^k must be >= 4 \(got 3\)"):
        integer(3, "k", lo=4)
    assert real(np.float32(0.5), "x", above=0) == 0.5
    with pytest.raises(ValueError, match=r"^x must be > 0 \(got 0\)"):
        real(0, "x", above=0)
    for v in (np.nan, np.inf, -np.inf, True, np.False_, "1", 1j, None):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            real(v, "x")


@pytest.mark.parametrize("v", [
    [[1, 2], [3, 4]], ((1, 2), (3, 4)), np.array([[1, 2], [3, 4]]),
    np.array([[1, 2], [3, 4]], dtype=np.uint8), [np.array([1, 2]), (3, 4)],
    np.array([[1, 2], [3, 4]], dtype=object)])
def test_nested_reads_lists_tuples_and_arrays_alike(v):
    got = nested(v, integer, [None, 2], "rows")
    assert got == [[1, 2], [3, 4]]
    assert all(type(x) is int for row in got for x in row)
    reals = nested(v, real, [2, 2], "rows")
    assert reals == [[1.0, 2.0], [3.0, 4.0]]
    assert all(type(x) is float for row in reals for x in row)


@pytest.mark.parametrize("v, item, shape, what", [
    ([], integer, [None], "a list of one or more entries"),
    ([[1, 2], [3]], integer, [None, 2], "a list of 2 entries"),
    ([1, 2], integer, [3], "a list of 3 entries"),
    (5, integer, [None], "a list of one or more entries"),
    (np.zeros((2, 3)), real, [2, 2], "a list of 2 entries"),
    (np.array([[1, 2], [3, 4]], dtype=bool), integer, [2, 2],
     "an integer"),
    (np.array([1.0, 2.0]), integer, [2], "an integer"),
    (np.array([1.0, np.nan, 2.0]), real, [3], "a finite number"),
    (np.array([2**63], dtype=np.uint64), integer, [1],
     r"an integer in \[-2\*\*63, 2\*\*63\)"),
    (np.array(["1", "2"]), integer, [2], "an integer"),
])
def test_nested_refuses_by_level(v, item, shape, what):
    with pytest.raises(ValueError, match=f"^rows must be {what}"):
        nested(v, item, shape, "rows")


# the one pmf message, whichever step law it reads
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda p: EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0)]), kind="deterministic",
        probs=p), "probs", id="EnvironmentModel"),
    pytest.param(lambda p: EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0)]), kind="mixture",
        atoms=((p, 1.0),)), "probs", id="EnvironmentModel-atom"),
    pytest.param(lambda p: SymmetricWalk1D((-1, 1), p), "probs",
                 id="SymmetricWalk1D"),
    pytest.param(lambda p: PerturbedChainSpec(
        1, [[-1], [1]], p, 16.0), "base_probs", id="PerturbedChainSpec"),
    pytest.param(lambda p: _chain(alt_offsets=[[1, 0], [0, 1]],
                                  alt_probs=p), "alt_probs",
                 id="PerturbedChainSpec-alt"),
])
@pytest.mark.parametrize("p", [(0.5, 0.6), (1.5, -0.5)],
                         ids=["sum", "negative"])
def test_step_laws_give_one_pmf_message(build, field, p):
    with pytest.raises(ValueError, match=rf"^{field} must be nonnegative "
                                         r"numbers that sum to 1 \(got "):
        build(p)


def test_pmf_reads_lists_and_arrays_alike():
    walk = SymmetricWalk1D((-1, 0, 1), (0.25, 0.5, 0.25))
    offs, probs = product_symmetric_base(walk, 10)     # 59,049 rows
    assert pmf(probs, len(offs), "p") == probs.tolist()
    assert pmf(probs[::-1].tolist(), None, "p") == probs[::-1].tolist()
    with pytest.raises(ValueError, match="^p must be a list of 3 entries"):
        pmf([0.5, 0.5], 3, "p")
    with pytest.raises(ValueError, match="^p must be nonnegative"):
        pmf([0.5, 0.5 + 2e-12], 2, "p")


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: SymmetricWalk1D((-1, 1), (0.4, 0.6)), "probs",
                 id="SymmetricWalk1D"),
    pytest.param(lambda: PerturbedChainSpec(1, [[-1], [2]], [0.5, 0.5], 16.0),
                 "base_probs", id="PerturbedChainSpec"),
])
def test_step_laws_give_one_symmetry_message(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be symmetric"):
        build()


def test_symmetric_sums_repeated_offsets():
    symmetric([(1, 0), (-1, 0), (-1, 0)], [0.5, 0.25, 0.25], "p")
    symmetric(zip([0, 2, -2]), [0.5, 0.25, 0.25], "p")
    with pytest.raises(ValueError, match="^p must be symmetric"):
        symmetric([(1, 0), (-1, 0), (0, 1)], [0.5, 0.25, 0.25], "p")


def test_point_reads_one_point_or_many():
    sup = drift_model().support
    assert sup.point(np.array([3, -1]), "x") == (3, -1)
    assert all(type(c) is int for c in sup.point(np.array([3, -1]), "x"))
    assert sup.point(np.zeros((2, 2), dtype=np.int64), "xs", many=True) == \
        [[0, 0], [0, 0]]
    for x, what in [((0, 0, 1), "a list of 2 entries"), ((0.5, 0), "an "
                    "integer"), ((True, 0), "an integer"), (5, "a list")]:
        with pytest.raises(ValueError, match=f"^x must be {what}"):
            sup.point(x, "x")


def test_product_base_caps_its_rows():
    # 2 ** 17 product steps, refused before the meshgrid allocates
    with pytest.raises(ValueError, match="more than 65536 product steps"):
        product_symmetric_base(simple_walk(), 17)
    with pytest.raises(ValueError, match="^dimension must be an integer"):
        product_symmetric_base(simple_walk(), 2.0)
    offs, probs = product_symmetric_base(simple_walk(), 16)
    assert offs.shape == (65536, 16) and offs.dtype == np.int64
