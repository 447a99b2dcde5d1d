"""Half-line Green functions, ladder tables and perturbed-chain experiments.

The half-line Green function g(s, t) of a symmetric integer walk killed on
(-infty, r0] is the expected number of visits to t before the kill,
started from s.  It admits a ladder representation
g = C * sum_n v(s'-n) v(t'-n) built from the strict ascending ladder
height, with a single unknown normalization constant; the laboratory
calibrates that constant against an exact linear-solve oracle at one
anchor point, after which the ladder formula must reproduce every other
entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fitting import fit_exponent
from .rng import derive_key, stream_u01_array

_TAG_GREEN_MC = 0x6EE1
_TAG_TAIL = 0x7A11
_TAG_CHAIN = 0xC4A1
_TAG_EXIT = 0xE217


@dataclass(frozen=True)
class SymmetricWalk1D:
    """Finite-support symmetric step distribution on the integers."""

    offsets: tuple
    probs: tuple

    def __post_init__(self):
        offs = tuple(int(z) for z in self.offsets)
        p = tuple(float(q) for q in self.probs)
        if len(offs) != len(p) or not offs:
            raise ValueError("offsets and probs must align and be nonempty")
        if len(set(offs)) != len(offs):
            raise ValueError("duplicate offsets")
        if not all(q >= 0 for q in p):   # also rejects NaN
            raise ValueError("probabilities must be nonnegative numbers")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        pmf = dict(zip(offs, p))
        for z, q in pmf.items():
            if abs(q - pmf.get(-z, 0.0)) > 1e-12:
                raise ValueError("step pmf must be symmetric")
        if all(z == 0 or q == 0 for z, q in pmf.items()):
            raise ValueError("walk must be nondegenerate")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "probs", p)

    @property
    def max_step(self) -> int:
        return max(abs(z) for z, q in zip(self.offsets, self.probs) if q > 0)

    @property
    def cum(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @property
    def offsets_array(self) -> np.ndarray:
        return np.array(self.offsets, dtype=np.int64)


def simple_walk() -> SymmetricWalk1D:
    return SymmetricWalk1D(offsets=(-1, 1), probs=(0.5, 0.5))


# ---------------------------------------------------------------------------
# ladder machinery


def ladder_heights(walk: SymmetricWalk1D, trunc: Optional[int] = None) -> dict:
    """Pmf of the strict ascending ladder height (first positive value).

    Computed by an absorbing linear solve on the states -trunc..0 with the
    walk killed on entering [1, infty).  The exit probabilities are a
    bounded solution of a constant-coefficient recurrence below the
    inhomogeneity, so the window is closed exactly with the decaying
    far-field modes; the residual mass defect is reported and a warning is
    raised when it exceeds 1e-10.
    """
    M = walk.max_step
    if trunc is None:
        trunc = max(30, 10 * M)
    if trunc < 10 * M:
        raise ValueError("trunc must be at least 10 * step range")
    lams = _decaying_modes(walk)
    J = len(lams)
    K = trunc
    # unknowns per height column: f(-K..0), A, B_1..B_J
    n = K + 1
    nuk = n + 1 + J
    col_A = n

    def sidx(s: int) -> int:
        return s + K                       # state s in [-K, 0]

    A_mat = np.zeros((nuk, nuk), dtype=complex)
    R = np.zeros((nuk, M))                 # rhs columns: heights 1..M
    for s in range(-K, 1):
        row = sidx(s)
        A_mat[row, sidx(s)] = 1.0
        for z, q in zip(walk.offsets, walk.probs):
            if q == 0:
                continue
            w = s + z
            if w >= 1:
                R[row, w - 1] += q
            elif w >= -K:
                A_mat[row, sidx(w)] -= q
            else:
                # far field: f(w) = A + sum_j B_j lam_j^(-w)
                A_mat[row, col_A] -= q
                for j, lam in enumerate(lams):
                    A_mat[row, col_A + 1 + j] -= q * lam ** (-w)
    # closure: the bottom J+1 solved values lie on the far-field manifold
    for i in range(J + 1):
        row = n + i
        s = -K + i
        A_mat[row, sidx(s)] = 1.0
        A_mat[row, col_A] = -1.0
        for j, lam in enumerate(lams):
            A_mat[row, col_A + 1 + j] = -lam ** (-s)
    F = np.linalg.solve(A_mat, R.astype(complex))
    pmf = F[sidx(0)].real
    loss = 1.0 - pmf.sum()
    if abs(loss) > 1e-10:
        warnings.warn(f"ladder height mass defect {loss:.3e} at trunc={trunc}")
    heights = {h + 1: float(p) for h, p in enumerate(pmf) if p > 1e-15}
    return {"pmf": heights, "truncation_mass": float(abs(loss))}


@dataclass
class LadderTables:
    """Ladder-height pmf and the renewal table v(m) (u = v by symmetry).

    v is stored up to proportionality (v_raw(0) = 1); the note records that
    the overall normalization of the Green formula is calibrated against a
    single linear-solve anchor value g(r0+1, r0+1).
    """

    walk: SymmetricWalk1D
    ladder_pmf: dict
    v_table: np.ndarray
    truncation_mass: float
    norm_constant: Optional[float] = None
    note: str = ("v normalized to v(0)=1; Green normalization calibrated "
                 "against the linear-solve anchor g(r0+1, r0+1)")

    def ensure(self, m_max: int) -> None:
        """Extend v out to index m_max."""
        cur = len(self.v_table) - 1
        if m_max <= cur:
            return
        v = np.zeros(m_max + 1)
        v[:cur + 1] = self.v_table
        for m in range(cur + 1, m_max + 1):
            v[m] = sum(p * v[m - h] for h, p in self.ladder_pmf.items() if h <= m)
        self.v_table = v

    def v(self, m: int) -> float:
        self.ensure(m)
        return float(self.v_table[m])


def build_ladder_tables(walk: SymmetricWalk1D, m_max: int = 64,
                        trunc: Optional[int] = None) -> LadderTables:
    lh = ladder_heights(walk, trunc)
    tables = LadderTables(walk=walk, ladder_pmf=lh["pmf"],
                          v_table=np.array([1.0]),
                          truncation_mass=lh["truncation_mass"])
    tables.ensure(m_max)
    return tables


# ---------------------------------------------------------------------------
# exact linear-solve oracle for the half-line Green function


def _decaying_modes(walk: SymmetricWalk1D) -> np.ndarray:
    """Roots inside the unit disk of sum_z p_z x^(z+M) = x^M.

    The double root at x = 1 (zero mean) is deflated analytically before
    calling the polynomial root finder.
    """
    M = walk.max_step
    coeffs = np.zeros(2 * M + 1)
    for z, q in zip(walk.offsets, walk.probs):
        if q > 0:
            coeffs[M + z] += q
    coeffs[M] -= 1.0
    poly = coeffs[::-1]                       # highest degree first
    for _ in range(2):                        # deflate (x - 1)^2
        poly, rem = np.polydiv(poly, np.array([1.0, -1.0]))
        if abs(rem[-1]) > 1e-9:
            raise RuntimeError("characteristic polynomial deflation failed")
    poly = np.trim_zeros(poly, "f")
    if len(poly) <= 1:
        return np.empty(0, dtype=complex)
    roots = np.roots(poly)
    return roots[np.abs(roots) < 1.0 - 1e-9]


def half_line_green_solve(walk: SymmetricWalk1D, r0: int, s: int, t: int) -> float:
    """Expected visits to t before entering (-infty, r0], from s.

    Exact up to floating point: the linear system on a finite window is
    closed with the far-field form A + sum_j B_j lam_j^x which the true
    solution obeys exactly beyond t + step range (bounded solutions of the
    homogeneous constant-coefficient recurrence).
    """
    if s <= r0 or t <= r0:
        raise ValueError("s and t must exceed the kill level r0")
    x0, y0 = s - r0, t - r0                  # shifted states >= 1
    M = walk.max_step
    lams = _decaying_modes(walk)
    J = len(lams)
    R = max(x0, y0) + M + J + 8
    nuk = R + 1 + J                          # h(1..R), A, B_1..B_J
    A_mat = np.zeros((nuk, nuk), dtype=complex)
    b = np.zeros(nuk, dtype=complex)
    col_A = R
    for x in range(1, R + 1):
        row = x - 1
        A_mat[row, x - 1] = 1.0
        b[row] = 1.0 if x == y0 else 0.0
        for z, q in zip(walk.offsets, walk.probs):
            if q == 0:
                continue
            w = x + z
            if w <= 0:
                continue
            if w <= R:
                A_mat[row, w - 1] -= q
            else:
                A_mat[row, col_A] -= q
                for j, lam in enumerate(lams):
                    A_mat[row, col_A + 1 + j] -= q * lam ** w
    # closure: the top J+1 solved values lie on the far-field manifold
    for i in range(J + 1):
        row = R + i
        x = R - i
        A_mat[row, x - 1] = 1.0
        A_mat[row, col_A] = -1.0
        for j, lam in enumerate(lams):
            A_mat[row, col_A + 1 + j] = -lam ** x
    sol = np.linalg.solve(A_mat, b)
    val = sol[x0 - 1]
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise RuntimeError("half-line solve produced a complex value")
    return float(val.real)


def half_line_green(walk: SymmetricWalk1D, r0: int, s: int, t: int,
                    tables: Optional[LadderTables] = None) -> float:
    """Half-line Green function via the ladder representation."""
    if s <= r0 or t <= r0:
        raise ValueError("s and t must exceed the kill level r0")
    if tables is None:
        tables = build_ladder_tables(walk)
    x, y = s - r0 - 1, t - r0 - 1
    tables.ensure(max(x, y))
    if tables.norm_constant is None:
        # raw formula gives 1 at the anchor (x=y=0); calibrate once
        tables.norm_constant = half_line_green_solve(walk, 0, 1, 1)
    v = tables.v_table
    m = min(x, y)
    raw = float(np.dot(v[x - m:x + 1][::-1], v[y - m:y + 1][::-1]))
    return tables.norm_constant * raw


def half_line_green_mc(walk: SymmetricWalk1D, r0: int, s: int, t: int,
                       reps: int = 10_000, seed: int = 0,
                       max_steps: int = 2_000_000,
                       tail_tol: float = 0.01) -> tuple:
    """Monte Carlo visit count with a batch-mean standard error.

    The kill time has infinite mean, so the loop stops once the surviving
    replicas can contribute at most `tail_tol` to the estimate (using the
    a priori bound g(y, t) <= C (t - r0)), or at the hard step cap.  The
    estimate is therefore biased downward by at most tail_tol; comparisons
    should allow 3 se + tail_tol.
    """
    if t <= r0 or s <= r0:
        return 0.0, 0.0
    keys = np.array([derive_key(seed, _TAG_GREEN_MC, i) for i in range(reps)],
                    dtype=np.uint64)
    pos = np.full(reps, s, dtype=np.int64)
    visits = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    cum = walk.cum
    offs = walk.offsets_array
    visits[pos == t] += 1
    green_bound = half_line_green_solve(walk, 0, 1, 1) * (t - r0)
    for ctr in range(max_steps):
        if alive.size == 0 or alive.size * green_bound <= tail_tol * reps:
            break
        u = stream_u01_array(keys[alive], ctr)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, len(cum) - 1)
        pos[alive] += offs[idx]
        killed = pos[alive] <= r0
        visits[alive[pos[alive] == t]] += 1
        alive = alive[~killed]
    n_batches = 32
    edges = np.linspace(0, reps, n_batches + 1).astype(int)
    bm = np.array([visits[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    est = float(visits.mean())
    se = float(bm.std(ddof=1) / np.sqrt(n_batches))
    return est, se


# ---------------------------------------------------------------------------
# first-passage tail and interval exit


def first_passage_tail(walk: SymmetricWalk1D, a_grid, mode: str = "exact",
                       reps: int = 100_000, seed: int = 0) -> dict:
    """P{Tbar >= a} for Tbar = first entry of the walk into (-infty, 0).

    Exact mode propagates the sub-probability distribution constrained to
    stay nonnegative; Monte Carlo mode simulates with survivor filtering.
    """
    a_grid = sorted(int(a) for a in a_grid)
    if any(a < 1 for a in a_grid):
        raise ValueError("tail grid entries must be >= 1")
    out = {}
    if mode == "exact":
        if max(a_grid) > 25:
            raise ValueError("exact mode limited to a <= 25")
        M = walk.max_step
        top = (max(a_grid) - 1) * M + 1
        dist = np.zeros(top + 1)
        dist[0] = 1.0
        steps_done = 0
        for a in a_grid:
            while steps_done < a - 1:
                new = np.zeros_like(dist)
                for z, q in zip(walk.offsets, walk.probs):
                    if q == 0:
                        continue
                    if z >= 0:
                        new[z:] += q * dist[:len(dist) - z if z else None]
                    else:
                        new[:z] += q * dist[-z:]
                dist = new
                steps_done += 1
            out[a] = float(dist.sum())
        return {"mode": "exact", "tail": out}
    if mode != "monte-carlo":
        raise ValueError("mode must be 'exact' or 'monte-carlo'")
    keys = np.array([derive_key(seed, _TAG_TAIL, i) for i in range(reps)],
                    dtype=np.uint64)
    pos = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    cum = walk.cum
    offs = walk.offsets_array
    amax = max(a_grid)
    grid_iter = iter(a_grid)
    next_a = next(grid_iter)
    counts = {}
    for t in range(1, amax):
        while next_a is not None and t >= next_a:
            counts[next_a] = alive.size
            next_a = next(grid_iter, None)
        u = stream_u01_array(keys[alive], t)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, len(cum) - 1)
        pos[alive] += offs[idx]
        alive = alive[pos[alive] >= 0]
    while next_a is not None:
        counts[next_a] = alive.size
        next_a = next(grid_iter, None)
    tail = {a: counts[a] / reps for a in a_grid}
    se = {a: float(np.sqrt(tail[a] * (1 - tail[a]) / reps)) for a in a_grid}
    return {"mode": "monte-carlo", "tail": tail, "se": se, "reps": reps}


def exit_probability(walk: SymmetricWalk1D, r0: int, r: int, x: int,
                     mode: str = "solve", reps: int = 20_000, seed: int = 0):
    """P_x{exit the interval [r0+1, r] into [r+1, infty)}."""
    if not (r0 < x <= r):
        raise ValueError("need r0 < x <= r")
    if mode == "solve":
        states = np.arange(r0 + 1, r + 1)
        n = len(states)
        Q = np.zeros((n, n))
        b = np.zeros(n)
        for i, s in enumerate(states):
            for z, q in zip(walk.offsets, walk.probs):
                if q == 0:
                    continue
                w = int(s) + z
                if w > r:
                    b[i] += q
                elif w > r0:
                    Q[i, w - r0 - 1] += q
        f = np.linalg.solve(np.eye(n) - Q, b)
        return float(f[x - r0 - 1])
    if mode != "monte-carlo":
        raise ValueError("mode must be 'solve' or 'monte-carlo'")
    keys = np.array([derive_key(seed, _TAG_EXIT, i) for i in range(reps)],
                    dtype=np.uint64)
    pos = np.full(reps, x, dtype=np.int64)
    alive = np.arange(reps)
    cum = walk.cum
    offs = walk.offsets_array
    right = 0
    ctr = 0
    while alive.size:
        u = stream_u01_array(keys[alive], ctr)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, len(cum) - 1)
        pos[alive] += offs[idx]
        cur = pos[alive]
        right += int((cur > r).sum())
        alive = alive[(cur > r0) & (cur <= r)]
        ctr += 1
    return right / reps


# ---------------------------------------------------------------------------
# perturbed chain experiments (Green bound and cube exit times)


@dataclass
class PerturbedChainSpec:
    """A Markov chain that is a symmetric walk perturbed near the origin.

    At state x the step is drawn from `alt` with probability
    min(1, C_pert |x|^(-p1)) and from the symmetric base otherwise, which
    realizes the coupling-failure bound by construction.  The test
    function is h(x) = C_h (|x| v 1)^(-p2); p2 = inf means the indicator
    of the origin.
    """

    dimension: int
    base_offsets: np.ndarray      # (k, d)
    base_probs: np.ndarray        # (k,)
    p1: float
    c_pert: float = 1.0
    alt_offsets: Optional[np.ndarray] = None
    alt_probs: Optional[np.ndarray] = None
    p2: float = np.inf
    c_h: float = 1.0
    allow_low_p1: bool = False

    def __post_init__(self):
        self.base_offsets = np.asarray(self.base_offsets, dtype=np.int64)
        self.base_probs = np.asarray(self.base_probs, dtype=float)
        _check_steps(self.base_offsets, self.base_probs, self.dimension,
                     "base")
        # symmetry of the base pmf
        pmf = {tuple(z): p for z, p in zip(self.base_offsets.tolist(),
                                           self.base_probs)}
        for z, p in pmf.items():
            neg = tuple(-c for c in z)
            if abs(p - pmf.get(neg, 0.0)) > 1e-12:
                raise ValueError("base pmf must be symmetric")
        if not (2 < self.p1 < np.inf and 0 <= self.c_pert < np.inf
                and 0 < self.c_h < np.inf):
            raise ValueError("need finite p1 > 2 (the theorem exponent "
                             "divides by 2 p1 - 4), c_pert >= 0 and c_h > 0")
        if not self.p2 > 0:   # also rejects NaN
            raise ValueError("test function must decay: p2 > 0 required")
        if self.p1 <= 15 and not self.allow_low_p1:
            raise ValueError("p1 > 15 required for the Green-bound regime "
                             "(set allow_low_p1 for exploratory runs)")
        if self.alt_offsets is None and self.alt_probs is None:
            # default bias: push along the first coordinate
            e0 = np.zeros(self.dimension, dtype=np.int64)
            e0[0] = 1
            self.alt_offsets = e0[None, :]
            self.alt_probs = np.array([1.0])
        else:
            self.alt_offsets = np.asarray(self.alt_offsets, dtype=np.int64)
            self.alt_probs = np.asarray(self.alt_probs, dtype=float)
            _check_steps(self.alt_offsets, self.alt_probs, self.dimension,
                         "alt")

    def h(self, pos: np.ndarray) -> np.ndarray:
        norm = np.sqrt((pos.astype(float) ** 2).sum(axis=1))
        if np.isinf(self.p2):
            return self.c_h * (norm == 0.0).astype(float)
        return self.c_h * np.maximum(norm, 1.0) ** (-self.p2)

    def theorem_exponent(self) -> float:
        denom = 2.0 * self.p1 - 4.0
        return max(1.0 - (0.0 if np.isinf(self.p2) else self.p2) / denom,
                   0.5 + 13.0 / denom)


def _check_steps(offsets, probs, d: int, name: str) -> None:
    """Offsets must be (k, d) rows with one probability each, and the
    probabilities a pmf."""
    if offsets.ndim != 2 or offsets.shape[1] != d \
            or probs.shape != (len(offsets),):
        raise ValueError(f"{name} offsets must be rows of length {d} with "
                         "one probability each")
    if not np.all(probs >= 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} probabilities must be nonnegative and "
                         "sum to 1")


def product_symmetric_base(walk: SymmetricWalk1D, d: int) -> tuple:
    """Extend a 1-d symmetric walk to Z^d as a product step distribution."""
    offs = [np.array(o, dtype=np.int64) for o in np.array(
        np.meshgrid(*([walk.offsets] * d), indexing="ij")).reshape(d, -1).T]
    probs = np.ones(len(offs))
    pv = np.array(walk.probs)
    grid = np.array(np.meshgrid(*([np.arange(len(walk.offsets))] * d),
                                indexing="ij")).reshape(d, -1).T
    for j in range(d):
        probs *= pv[grid[:, j]]
    return np.array(offs), probs


def _chain_steps(spec: PerturbedChainSpec, pos: np.ndarray, keys: np.ndarray,
                 ctr: int) -> np.ndarray:
    """One synchronous step of the perturbed chain for all replicas."""
    m = pos.shape[0]
    u_sel = stream_u01_array(keys, 3 * ctr)
    norm = np.sqrt((pos.astype(float) ** 2).sum(axis=1))
    p_pert = np.minimum(1.0, spec.c_pert * np.maximum(norm, 1.0) ** (-spec.p1))
    p_pert = np.where(norm == 0, np.minimum(1.0, spec.c_pert), p_pert)
    pert = u_sel < p_pert
    u_step = stream_u01_array(keys, 3 * ctr + 1)
    base_idx = np.searchsorted(np.cumsum(spec.base_probs), u_step, side="left")
    base_idx = np.minimum(base_idx, len(spec.base_probs) - 1)
    steps = spec.base_offsets[base_idx]
    if pert.any():
        u_alt = stream_u01_array(keys[pert], 3 * ctr + 2)
        alt_idx = np.searchsorted(np.cumsum(spec.alt_probs), u_alt, side="left")
        alt_idx = np.minimum(alt_idx, len(spec.alt_probs) - 1)
        steps = steps.copy()
        steps[pert] = spec.alt_offsets[alt_idx]
    return steps


def green_bound_experiment(spec: PerturbedChainSpec, n_grid, reps: int = 256,
                           seed: int = 0, start=None) -> dict:
    """Growth of sum_{k<n} E h(Y_k) along n_grid, with an exponent fit."""
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    if start is None:
        start = np.zeros(spec.dimension, dtype=np.int64)
    keys = np.array([derive_key(seed, _TAG_CHAIN, i) for i in range(reps)],
                    dtype=np.uint64)
    pos = np.tile(np.asarray(start, dtype=np.int64), (reps, 1))
    acc = spec.h(pos).astype(float)          # k = 0 term
    curve = {}
    for k in range(1, n_max):
        if k in n_grid:
            curve[k] = float(acc.mean())
        pos = pos + _chain_steps(spec, pos, keys, k - 1)
        acc += spec.h(pos)
    curve[n_max] = float(acc.mean())
    for n in n_grid:
        if n not in curve:   # n == 1: only the k=0 term
            curve[n] = float(spec.h(np.tile(start, (1, 1))).mean())
    ys = np.array([curve[n] for n in n_grid])
    fit = fit_exponent(n_grid, ys)
    return {
        "n_grid": n_grid,
        "curve": ys,
        "fit": fit,
        "theorem_exponent": spec.theorem_exponent(),
        "exploratory": spec.p1 <= 15,
    }


def cube_exit_time(spec: PerturbedChainSpec, r_grid, reps: int = 512,
                   seed: int = 0, step_cap_factor: int = 400) -> dict:
    """Monte Carlo mean exit times from centered cubes, with a power fit."""
    r_grid = sorted(int(r) for r in r_grid)
    means = []
    truncated = {}
    for r in r_grid:
        cap = step_cap_factor * (r + 1) ** 2 + 1000
        keys = np.array([derive_key(seed, _TAG_EXIT, r, i) for i in range(reps)],
                        dtype=np.uint64)
        pos = np.zeros((reps, spec.dimension), dtype=np.int64)
        exit_time = np.full(reps, cap, dtype=np.int64)
        alive = np.arange(reps)
        for tstep in range(1, cap + 1):
            steps = _chain_steps(spec, pos[alive], keys[alive], tstep - 1)
            pos[alive] += steps
            out = np.abs(pos[alive]).max(axis=1) > r
            exit_time[alive[out]] = tstep
            alive = alive[~out]
            if alive.size == 0:
                break
        truncated[r] = int(alive.size)
        means.append(float(exit_time.mean()))
    positive = [r for r in r_grid if r > 0]
    fit = None
    if len(positive) >= 2:
        ys = [m for r, m in zip(r_grid, means) if r > 0]
        fit = fit_exponent(positive, ys)
    return {"r_grid": r_grid, "mean_exit": means, "fit": fit,
            "truncated": truncated}
