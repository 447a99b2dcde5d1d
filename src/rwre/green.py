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
from .rng import (counter_u01_array, derive_key_range, step_index,
                  stream_u01_array)

_TAG_GREEN_MC = 0x6EE1
_TAG_TAIL = 0x7A11
_TAG_CHAIN = 0xC4A1
_TAG_EXIT = 0xE217

# Cells (survivors x counters) of one killed-walk block.  Blocking is exact:
# every draw is a pure function of (key, counter), so a block draws ahead
# what the one-counter loop would draw, and the stop rules cut it at the
# counter where that loop stops.
_BLOCK_CELLS = 1 << 14
# Exact first-passage propagation: float64 states (1 MiB per array), and
# state updates (steps x states x offsets, 1.2-1.3 s at the cap on a
# 2-vCPU VM; the cost grows quadratically in a)
_EXACT_TAIL_STATES = 1 << 17
_EXACT_TAIL_UPDATES = 1 << 30
# Unknowns of one dense linear solve (ladder_heights and
# half_line_green_solve): the complex matrix of 2**11 unknowns is 64 MiB
_DENSE_UNKNOWNS = 1 << 11
# Step caps of the Monte Carlo loops: half_line_green_mc stops after
# _MC_MAX_STEPS steps, and cube_exit_time truncates the exit time from the
# cube of radius r at _EXIT_CAP_FACTOR (r + 1)^2 + 1000 steps
_MC_MAX_STEPS = 2_000_000
_EXIT_CAP_FACTOR = 400


def _block_len(m: int, left: Optional[int] = None) -> int:
    """Counters per block for m survivors, at most `left`."""
    b = max(1, _BLOCK_CELLS // max(m, 1))
    return b if left is None else min(b, left)


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Column of the first True in each row of `mask`, or its width."""
    j = mask.argmax(axis=1)
    j[~mask[np.arange(len(j)), j]] = mask.shape[1]
    return j


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


def _ladder_trunc(walk: SymmetricWalk1D) -> int:
    """Depth of the ladder solve's window: states -trunc..0."""
    return max(30, 10 * walk.max_step)


def ladder_heights(walk: SymmetricWalk1D) -> dict:
    """Pmf of the strict ascending ladder height (first positive value).

    Computed by an absorbing linear solve on the states -trunc..0, trunc =
    max(30, 10 max_step), with the walk killed on entering [1, infty).  The
    exit probabilities are a bounded solution of a constant-coefficient
    recurrence below the inhomogeneity, so the window is closed exactly
    with the decaying far-field modes; the residual mass defect is reported
    and a warning is raised when it exceeds 1e-10.
    """
    check_ladder_size(walk)
    trunc = _ladder_trunc(walk)
    A_mat, exits = _closed_window(walk, -trunc, 0, _decaying_modes(walk))
    F = np.linalg.solve(A_mat, exits.astype(complex))
    pmf = F[trunc].real                    # state 0, heights 1..M
    loss = 1.0 - pmf.sum()
    if abs(loss) > 1e-10:
        warnings.warn(f"ladder height mass defect {loss:.3e} at trunc={trunc}")
    heights = {h + 1: float(p) for h, p in enumerate(pmf) if p > 1e-15}
    return {"pmf": heights, "truncation_mass": float(abs(loss))}


@dataclass
class LadderTables:
    """Ladder-height pmf and the renewal table v(m) (u = v by symmetry).

    v is stored up to proportionality (v_raw(0) = 1); half_line_green
    calibrates the overall normalization against a single linear-solve
    anchor value g(r0+1, r0+1).
    """

    walk: SymmetricWalk1D
    ladder_pmf: dict
    v_table: np.ndarray
    truncation_mass: float
    norm_constant: Optional[float] = None

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


def build_ladder_tables(walk: SymmetricWalk1D,
                        m_max: int = 64) -> LadderTables:
    lh = ladder_heights(walk)
    tables = LadderTables(walk=walk, ladder_pmf=lh["pmf"],
                          v_table=np.array([1.0]),
                          truncation_mass=lh["truncation_mass"])
    tables.ensure(m_max)
    return tables


# ---------------------------------------------------------------------------
# exact linear-solve oracle for the half-line Green function


# Bounds on the unknowns of the dense solves, checked before any
# allocation.  The far field adds J <= M - 1 modes: the characteristic
# polynomial has degree 2M, a double root at 1, and its other roots pair
# as x, 1/x across the unit circle.

def _check_dense(n: int, what: str) -> None:
    if n > _DENSE_UNKNOWNS:
        raise ValueError(f"{what} would need up to {n} unknowns "
                         f"(limit {_DENSE_UNKNOWNS})")


def check_ladder_size(walk: SymmetricWalk1D):
    """Raise ValueError when ladder_heights(walk) would need more than
    _DENSE_UNKNOWNS unknowns (trunc + 2 + J)."""
    M = walk.max_step
    _check_dense(_ladder_trunc(walk) + M + 1,
                 f"offsets reach max step {M}: the ladder solve")


def check_solve_size(walk: SymmetricWalk1D, r0: int, s: int, t: int):
    """Raise ValueError when half_line_green_solve(walk, r0, s, t) would need
    more than _DENSE_UNKNOWNS unknowns (max(s, t) - r0 + M + 2J + 9)."""
    _check_dense(max(s, t) - r0 + 3 * walk.max_step + 7,
                 f"point ({s}, {t}) lies {max(s, t) - r0} above r0 = {r0}: "
                 "the exact solve")


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


def _closed_window(walk: SymmetricWalk1D, lo: int, hi: int,
                   lams: np.ndarray) -> tuple:
    """(I - Q) of `walk` on the states lo..hi (rows and columns 0..n-1, in
    order), killed past the side nearer 0 and closed on the far side by the
    bounded far-field form A + sum_j B_j lam_j^|w| (columns n and n + 1 + j;
    rows n..n + J put the J + 1 states at the far end on it), and
    exits[row, d - 1], the probability of a step d states past the near side.
    """
    J = len(lams)
    n = hi - lo + 1
    far_low = -lo > hi
    A_mat = np.zeros((n + 1 + J, n + 1 + J), dtype=complex)
    exits = np.zeros((n + 1 + J, walk.max_step))
    for row, s in enumerate(range(lo, hi + 1)):
        A_mat[row, row] = 1.0
        for z, q in zip(walk.offsets, walk.probs):
            if q == 0:
                continue
            w = s + z
            past = w - hi if far_low else lo - w
            if past > 0:
                exits[row, past - 1] += q
            elif lo <= w <= hi:
                A_mat[row, w - lo] -= q
            else:
                A_mat[row, n] -= q
                for j, lam in enumerate(lams):
                    A_mat[row, n + 1 + j] -= q * lam ** abs(w)
    for i in range(J + 1):
        s = lo + i if far_low else hi - i
        A_mat[n + i, s - lo] = 1.0
        A_mat[n + i, n] = -1.0
        for j, lam in enumerate(lams):
            A_mat[n + i, n + 1 + j] = -lam ** abs(s)
    return A_mat, exits


def half_line_green_solve(walk: SymmetricWalk1D, r0: int, s: int, t: int) -> float:
    """Expected visits to t before entering (-infty, r0], from s.

    Exact up to floating point: the linear system on the shifted states
    1..R is closed with the far-field form A + sum_j B_j lam_j^x which the
    true solution obeys exactly beyond t + step range (bounded solutions of
    the homogeneous constant-coefficient recurrence).
    """
    if s <= r0 or t <= r0:
        raise ValueError("s and t must exceed the kill level r0")
    check_solve_size(walk, r0, s, t)
    x0, y0 = s - r0, t - r0                  # shifted states >= 1
    lams = _decaying_modes(walk)
    R = max(x0, y0) + walk.max_step + len(lams) + 8
    A_mat, _ = _closed_window(walk, 1, R, lams)
    b = np.zeros(len(A_mat), dtype=complex)
    b[y0 - 1] = 1.0
    sol = np.linalg.solve(A_mat, b)
    val = sol[x0 - 1]
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise RuntimeError("half-line solve produced a complex value")
    return float(val.real)


def half_line_green(walk: SymmetricWalk1D, r0: int, s: int, t: int,
                    tables: LadderTables) -> float:
    """Half-line Green function via the ladder representation, from the
    tables build_ladder_tables(walk) made."""
    if s <= r0 or t <= r0:
        raise ValueError("s and t must exceed the kill level r0")
    if tables.walk != walk:
        raise ValueError("ladder tables were built for another walk")
    x, y = s - r0 - 1, t - r0 - 1
    tables.ensure(max(x, y))
    if tables.norm_constant is None:
        # raw formula gives 1 at the anchor (x=y=0); calibrate once
        tables.norm_constant = half_line_green_solve(walk, 0, 1, 1)
    v = tables.v_table
    m = min(x, y)
    raw = float(np.dot(v[x - m:x + 1][::-1], v[y - m:y + 1][::-1]))
    return tables.norm_constant * raw


def _killed_walk(walk: SymmetricWalk1D, keys: np.ndarray, start: int,
                 ctr: int, lo: int, n_steps: Optional[int] = None, stop=None,
                 hit: Optional[int] = None) -> tuple:
    """Replicas of `walk` from `start`, killed on entering (-infty, lo).

    Replica i takes its k-th step from counter ctr + k of keys[i].  The run
    ends after n_steps steps, when no replica is alive, or at the first
    step count after which `stop(alive count)` holds (stop must be
    monotone: once true for a count, true for every smaller one).  Each
    block draws b counters for every survivor, takes the paths as a cumsum,
    finds each kill with argmax and counts survivors per step with
    bincount, so the run ends on the exact step the one-counter loop ends.

    Returns (alive, visits): alive[k] replicas alive after k steps;
    visits[i] steps of replica i that landed on `hit` while alive.
    """
    n = len(keys)
    cum, offs = walk.cum, walk.offsets_array
    visits = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)                          # the survivors
    at = np.full(n, start, dtype=np.int64)      # and their positions
    alive = [np.array([n])]
    done = 0
    while idx.size and done != n_steps and not (stop and stop(idx.size)):
        m = idx.size
        b = _block_len(m, None if n_steps is None else n_steps - done)
        u = counter_u01_array(keys[idx, None], ctr + done + np.arange(b))
        # displacement within the block; bounds shifted per replica instead
        move = np.cumsum(offs[step_index(cum, u)], axis=1)
        del u                           # block arrays: keep few alive at once
        kill = _first_true(move < (lo - at)[:, None])
        left = m - np.cumsum(np.bincount(kill, minlength=b + 1)[:b])
        ends = left == 0
        if stop:
            ends |= stop(left)
        j = int(ends.argmax()) + 1 if ends.any() else b
        if hit is not None:
            row, col = np.divmod(
                np.flatnonzero(move[:, :j] == (hit - at)[:, None]), j)
            visits[idx] += np.bincount(row[col < kill[row]], minlength=m)
        alive.append(left[:j])
        keep = kill >= j
        idx, at = idx[keep], at[keep] + move[keep, j - 1]
        done += j
    return np.concatenate(alive), visits


def half_line_green_mc(walk: SymmetricWalk1D, r0: int, s: int, t: int,
                       reps: int = 10_000, seed: int = 0,
                       tail_tol: float = 0.01) -> tuple:
    """Monte Carlo visit count with a batch-mean standard error over
    min(32, reps) batches; reps must be at least 2.

    The kill time has infinite mean, so the loop stops once the surviving
    replicas can contribute at most `tail_tol` to the estimate (using the
    a priori bound g(y, t) <= C (t - r0)), or at the hard step cap
    _MC_MAX_STEPS, with a RuntimeWarning if the survivors could then still
    add more than tail_tol.  Otherwise the estimate is biased downward by
    at most tail_tol; comparisons should allow 3 se + tail_tol.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error "
                         f"(got {reps})")
    if t <= r0 or s <= r0:
        return 0.0, 0.0
    keys = derive_key_range(seed, _TAG_GREEN_MC, n=reps)
    green_bound = half_line_green_solve(walk, 0, 1, 1) * (t - r0)
    tail = tail_tol * reps

    def negligible(alive):
        return alive * green_bound <= tail

    alive, visits = _killed_walk(walk, keys, s, 0, lo=r0 + 1,
                                 n_steps=_MC_MAX_STEPS, stop=negligible, hit=t)
    if s == t:
        visits += 1
    if len(alive) - 1 == _MC_MAX_STEPS and alive[-1] and \
            not negligible(alive[-1]):
        warnings.warn(f"half_line_green_mc(s={s}, t={t}) stopped at "
                      f"max_steps={_MC_MAX_STEPS} with {alive[-1]} survivors,"
                      f" which may add more than tail_tol={tail_tol}",
                      RuntimeWarning)
    n_batches = min(32, reps)
    edges = np.linspace(0, reps, n_batches + 1).astype(int)
    bm = np.array([visits[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    est = float(visits.mean())
    se = float(bm.std(ddof=1) / np.sqrt(n_batches))
    return est, se


# ---------------------------------------------------------------------------
# first-passage tail


def first_passage_tail(walk: SymmetricWalk1D, a_grid, mode: str = "exact",
                       reps: int = 100_000, seed: int = 0) -> dict:
    """P{Tbar >= a} for Tbar = first entry of the walk into (-infty, 0).

    Exact mode propagates the sub-probability distribution constrained to
    stay nonnegative, in O(a * states) time; it is capped in states and in
    state updates.  Monte Carlo mode simulates with survivor filtering.
    """
    a_grid = sorted(int(a) for a in a_grid)
    if any(a < 1 for a in a_grid):
        raise ValueError("tail grid entries must be >= 1")
    out = {}
    if mode == "exact":
        M = walk.max_step
        top = (max(a_grid) - 1) * M + 1
        n_offs = sum(q > 0 for q in walk.probs)
        if top + 1 > _EXACT_TAIL_STATES or \
                (max(a_grid) - 1) * (top + 1) * n_offs > _EXACT_TAIL_UPDATES:
            raise ValueError(
                "exact mode limited to (a - 1) * max_step + 2 <= "
                f"{_EXACT_TAIL_STATES} states and (a - 1) x states x offsets"
                f" <= {_EXACT_TAIL_UPDATES} state updates")
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
    keys = derive_key_range(seed, _TAG_TAIL, n=reps)
    # step k draws counter k; P{Tbar >= a} counts survivors of a - 1 steps
    alive, _ = _killed_walk(walk, keys, 0, 1, lo=0, n_steps=max(a_grid) - 1)
    counts = {a: int(alive[a - 1]) if a <= len(alive) else 0 for a in a_grid}
    tail = {a: counts[a] / reps for a in a_grid}
    se = {a: float(np.sqrt(tail[a] * (1 - tail[a]) / reps)) for a in a_grid}
    return {"mode": "monte-carlo", "tail": tail, "se": se, "reps": reps}


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


def _pert_prob(spec: PerturbedChainSpec, norm: np.ndarray) -> np.ndarray:
    """Probability of an alt step at states of Euclidean norm `norm`."""
    p = np.minimum(1.0, spec.c_pert * np.maximum(norm, 1.0) ** (-spec.p1))
    return np.where(norm == 0, np.minimum(1.0, spec.c_pert), p)


def _chain_steps(spec: PerturbedChainSpec, pos: np.ndarray, keys: np.ndarray,
                 ctr: int) -> np.ndarray:
    """One synchronous step of the perturbed chain for all replicas."""
    u_sel = stream_u01_array(keys, 3 * ctr)
    norm = np.sqrt((pos.astype(float) ** 2).sum(axis=1))
    pert = u_sel < _pert_prob(spec, norm)
    u_step = stream_u01_array(keys, 3 * ctr + 1)
    steps = spec.base_offsets[step_index(np.cumsum(spec.base_probs), u_step)]
    if pert.any():
        u_alt = stream_u01_array(keys[pert], 3 * ctr + 2)
        steps[pert] = spec.alt_offsets[
            step_index(np.cumsum(spec.alt_probs), u_alt)]
    return steps


def green_bound_experiment(spec: PerturbedChainSpec, n_grid, reps: int = 256,
                           seed: int = 0) -> dict:
    """Growth of sum_{k<n} E h(Y_k) along n_grid (every n >= 1), from the
    origin, with an exponent fit."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1 for a mean (got {reps})")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError(f"n_grid entries must be >= 1 (got {n_grid})")
    n_max = n_grid[-1]
    keys = derive_key_range(seed, _TAG_CHAIN, n=reps)
    pos = np.zeros((reps, spec.dimension), dtype=np.int64)
    acc = spec.h(pos).astype(float)          # k = 0 term
    curve = {}
    for k in range(1, n_max):
        if k in n_grid:
            curve[k] = float(acc.mean())
        pos = pos + _chain_steps(spec, pos, keys, k - 1)
        acc += spec.h(pos)
    curve[n_max] = float(acc.mean())
    ys = np.array([curve[n] for n in n_grid])
    fit = fit_exponent(n_grid, ys)
    return {
        "n_grid": n_grid,
        "curve": ys,
        "fit": fit,
        "theorem_exponent": spec.theorem_exponent(),
        "exploratory": spec.p1 <= 15,
    }


def _chain_exit_times(spec: PerturbedChainSpec, keys: np.ndarray, r: int,
                      cap: int) -> tuple:
    """Steps until chain replicas started at the origin leave the cube
    max|x| <= r (cap for those still inside after cap steps), and the
    number of those.

    Replica i takes its k-th step from counters 3k, 3k+1 and, when
    perturbed, 3k+2 of keys[i], as _chain_steps does; each replica keeps
    its own counter, so replicas may advance out of step.  A block draws b
    base steps per survivor, builds the base path one coordinate at a time,
    and cuts each replica's block at its exit, at its first perturbed step
    (whose alt offset it then draws) or at cap.
    """
    d = spec.dimension
    base_cum, alt_cum = np.cumsum(spec.base_probs), np.cumsum(spec.alt_probs)
    base_q = [np.ascontiguousarray(spec.base_offsets[:, q]) for q in range(d)]
    # p_pert by integer squared norm n2: sqrt(float(n2)) is the float norm
    # _chain_steps takes.  The table, no larger than a block array, covers
    # the cube's norms while they fit; larger ones are evaluated directly
    n_tab = min(d * r * r, _BLOCK_CELLS) + 1
    p_tab = _pert_prob(spec, np.sqrt(np.arange(n_tab, dtype=float)))
    exit_time = np.full(len(keys), cap, dtype=np.int64)
    pos = np.zeros((d, len(keys)), dtype=np.int64)
    ctr = np.zeros(len(keys), dtype=np.int64)
    idx = np.arange(len(keys))
    truncated = 0
    while idx.size:
        m, c = idx.size, ctr[idx]
        lim = cap - c
        b = _block_len(m, int(lim.max()))
        k = keys[idx, None]
        c3 = 3 * (c[:, None] + np.arange(b))
        step = step_index(base_cum, counter_u01_array(k, c3 + 1))
        # path[q][:, s]: coordinate q after s base steps of the block; n2
        # the squared norm before each step, out whether it left the cube
        path = []
        for q in range(d):
            xq = np.empty((m, b + 1), dtype=np.int64)
            xq[:, 0] = pos[q, idx]
            xq[:, 1:] = base_q[q][step]
            np.cumsum(xq, axis=1, out=xq)
            if q == 0:
                n2, out = xq[:, :b] ** 2, np.abs(xq[:, 1:]) > r
            else:
                n2 += xq[:, :b] ** 2
                out |= np.abs(xq[:, 1:]) > r
            path.append(xq)
        del step                        # block arrays: keep few alive at once
        p = p_tab[np.minimum(n2, n_tab - 1)]
        far = np.flatnonzero(n2 >= n_tab)
        if far.size:
            p.flat[far] = _pert_prob(spec, np.sqrt(n2.flat[far].astype(float)))
        pert = counter_u01_array(k, c3) < p
        del c3, n2, p
        np.minimum(lim, b, out=lim)
        first_pert, first_out = _first_true(pert), _first_true(out)
        exits = first_out < np.minimum(first_pert, lim)
        alt = ~exits & (first_pert < lim)
        taken = np.where(exits, first_out + 1, np.where(alt, first_pert, lim))
        rows = np.arange(m)
        new = np.stack([xq[rows, taken] for xq in path])
        if alt.any():
            u_alt = counter_u01_array(k[alt, 0],
                                      3 * (c[alt] + first_pert[alt]) + 2)
            new[:, alt] += spec.alt_offsets[step_index(alt_cum, u_alt)].T
            exits[alt] = (np.abs(new[:, alt]) > r).any(axis=0)
            taken[alt] += 1
        c = c + taken
        exit_time[idx[exits]] = c[exits]
        capped = ~exits & (c == cap)
        truncated += int(capped.sum())
        keep = ~exits & ~capped
        ctr[idx], pos[:, idx] = c, new
        idx = idx[keep]
    return exit_time, truncated


def cube_exit_time(spec: PerturbedChainSpec, r_grid, reps: int = 512,
                   seed: int = 0) -> dict:
    """Monte Carlo mean exit times from centered cubes, with a power fit."""
    r_grid = sorted(int(r) for r in r_grid)
    means = []
    truncated = {}
    for r in r_grid:
        cap = _EXIT_CAP_FACTOR * (r + 1) ** 2 + 1000
        keys = derive_key_range(seed, _TAG_EXIT, r, n=reps)
        exit_time, truncated[r] = _chain_exit_times(spec, keys, r, cap)
        means.append(float(exit_time.mean()))
    positive = [r for r in r_grid if r > 0]
    fit = None
    if len(positive) >= 2:
        ys = [m for r, m in zip(r_grid, means) if r > 0]
        fit = fit_exponent(positive, ys)
    return {"r_grid": r_grid, "mean_exit": means, "fit": fit,
            "truncated": truncated}
