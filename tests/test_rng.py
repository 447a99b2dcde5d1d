import warnings

import numpy as np

from rwre.rng import (_M1, _M2, MASK64, U01_MAX, _u01, derive_key,
                      derive_key_array, derive_key_range, mix64, mix64_array,
                      site_keys, site_keys_mixed, site_u01, stream_u01,
                      stream_u01_array, counter_u01_array)


def test_mix64_scalar_matches_array():
    xs = [0, 1, 2**63, 0xDEADBEEF, 2**64 - 1]
    given = np.array(xs, dtype=np.uint64)
    arr = mix64_array(given)
    for x, a in zip(xs, arr):
        assert mix64(x) == int(a)
    assert given.tolist() == xs             # the input is left as it was


def test_derive_key_matches_site_keys():
    key = derive_key(42, 7)
    sites = np.array([[3, 4], [0, 0], [-5, 11], [2**31, -2**31]], dtype=np.int64)
    vec = site_keys(key, sites)
    for row, k in zip(sites, vec):
        assert derive_key(key, *row.tolist()) == int(k)
    mixed = site_keys_mixed(np.full(len(sites), key, dtype=np.uint64), sites)
    assert np.array_equal(vec, mixed)


def test_stream_scalar_matches_array():
    keys = np.array([derive_key(1, i) for i in range(5)], dtype=np.uint64)
    for ctr in (0, 1, 17, 123456):
        arr = stream_u01_array(keys, ctr)
        for k, u in zip(keys, arr):
            assert stream_u01(int(k), ctr) == u
    one = counter_u01_array(int(keys[0]), np.arange(10, dtype=np.uint64))
    for ctr in range(10):
        assert one[ctr] == stream_u01(int(keys[0]), ctr)


def test_uniforms_open_interval_and_spread():
    keys = np.array([derive_key(9, i) for i in range(20000)], dtype=np.uint64)
    u = stream_u01_array(keys, 0)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1 / 12) < 0.005


def _unmix64(h: int) -> int:
    """The inverse of mix64: mix64(_unmix64(h)) == h."""
    def unxorshift(x, s):
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y
    h = unxorshift(h, 31)
    h = (h * pow(_M2, -1, 2**64)) & MASK64
    h = unxorshift(h, 27)
    h = (h * pow(_M1, -1, 2**64)) & MASK64
    return unxorshift(h, 30)


def test_all_ones_draw_stays_below_one():
    # (2**53 - 1) + 0.5 rounds up to 2**53, so a draw whose top 53 bits are
    # all ones would give exactly 1.0, where gammaincinv is inf
    assert U01_MAX == np.nextafter(1.0, 0.0)
    ones = np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
    assert _u01(ones).tolist() == [U01_MAX, U01_MAX]
    # the next draw down keeps its value: (2**53 - 2) + 0.5 rounds to even
    below = np.array([2**64 - 2**11 - 1], dtype=np.uint64)
    assert _u01(below).tolist() == [1.0 - 2.0**-52]
    key = _unmix64(2**64 - 1)
    assert mix64(key) == 2**64 - 1
    assert stream_u01(key, 0) == U01_MAX
    assert stream_u01_array(np.array([key], dtype=np.uint64), 0)[0] == U01_MAX
    assert counter_u01_array(key, np.arange(2))[0] == U01_MAX
    # counter 1 of the key one GAMMA below draws the same value
    assert stream_u01((key - 0x9E3779B97F4A7C15) & MASK64, 1) == U01_MAX
    assert site_u01(key, (), 2) == [U01_MAX, stream_u01(key, 1)]


def test_derive_key_sensitivity():
    assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
    assert derive_key(1, 2) != derive_key(2, 2)
    assert derive_key(5, -1) != derive_key(5, 1)
    keys = {derive_key(0, i, j) for i in range(50) for j in range(50)}
    assert len(keys) == 2500


def test_zero_dim_inputs_wrap_without_warning():
    # uint64 scalars warn on overflow where arrays wrap silently, so the
    # array helpers must lift 0-d inputs to one dimension
    key = derive_key(3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = stream_u01_array(np.uint64(key), 2**40)
        c = counter_u01_array(key, np.uint64(7))
        m = site_keys_mixed(np.uint64(key), np.array([[2**62, -1]]))
    assert u.shape == (1,) and u[0] == stream_u01(key, 2**40)
    assert c.shape == (1,) and c[0] == stream_u01(key, 7)
    assert int(m[0]) == derive_key(key, 2**62, -1)


def test_derive_key_array_matches_scalar():
    seeds = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]
    keys = derive_key_array(np.array(seeds, dtype=np.uint64), 0x57A1C5EED, 3)
    assert [int(k) for k in keys] == [derive_key(s, 0x57A1C5EED, 3)
                                      for s in seeds]


def test_derive_key_range_matches_scalar():
    for seed, parts in [(0, ()), (7, (0x6EE1,)), (-3, (-1, 2**63)),
                        (2**63 + 5, (0xE217, -40)), (2**64 - 1, (2**64 - 1,))]:
        keys = derive_key_range(seed, *parts, n=37)
        assert keys.dtype == np.uint64
        assert [int(k) for k in keys] == [derive_key(seed, *parts, i)
                                          for i in range(37)]
    empty = derive_key_range(2**63, -1, n=0)
    assert empty.shape == (0,) and empty.dtype == np.uint64


def test_counter_u01_array_blocks_match_stream():
    # keys[:, None] against a (m, B) counter block, each row its own
    # counters, equals one stream_u01_array call per counter
    keys = derive_key_range(5, -2, n=6)
    ctrs = np.array([0, 3, 2**40, 2**62 + 1, 17, 2**63 + 9], dtype=np.uint64)
    block = ctrs[:, None] + np.arange(4, dtype=np.uint64)
    got = counter_u01_array(keys[:, None], block)
    assert got.shape == (6, 4)
    for i, k in enumerate(keys):
        for j in range(4):
            assert got[i, j] == stream_u01_array(k, int(block[i, j]))[0]
    row = counter_u01_array(keys[:, None], np.arange(3))
    for j in range(3):
        assert np.array_equal(row[:, j], stream_u01_array(keys, j))
    assert counter_u01_array(keys[:0, None], np.arange(3)).shape == (0, 3)


def test_site_u01_matches_derive_key_streams():
    # one call per site: the fold of the site onto a precomputed prefix key
    # and the first k draws (or k draws from ctr) of the folded key
    sites = [(), (0,), (3, -4), (-1, -1), (2**31, -2**31 - 1),
             (2**40 + 3, -2**62, 2**63 - 1)]
    for seed, prefix in [(0, ()), (7, (0xAA06,)), (2**63 + 5, (-3,)),
                         (2**64 - 1, (0x51BE5EED, 2**63))]:
        pk = derive_key(seed, *prefix)
        for site in sites:
            key = derive_key(seed, *prefix, *site)
            for k in (1, 3, 9):
                assert site_u01(pk, site, k) == \
                    [stream_u01(key, i) for i in range(k)]
            assert site_u01(pk, site, 2, ctr=2**40) == \
                [stream_u01(key, 2**40), stream_u01(key, 2**40 + 1)]
            assert site_u01(pk, site, 0) == []
