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
