import numpy as np
import pytest

from rwre.fitting import check_grid, fit_exponent


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
    with pytest.raises(ValueError, match="ell_grid entries must be integers"):
        check_grid([2.7, 4.2], 1, "ell_grid")


def test_check_grid_refuses_a_string_entry():
    # ["4", 8] was parsed to [4, 8]
    with pytest.raises(ValueError, match="n_grid entries must be integers"):
        check_grid(["4", 8], 1, "n_grid")


def test_check_grid_refuses_a_bool_entry():
    # [True, 3] was read as [1, 3]
    for values in ([True, 3], np.array([True, False])):
        with pytest.raises(ValueError, match="r_grid entries must be "
                                             "integers"):
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
