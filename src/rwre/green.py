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
from functools import partial
from typing import Optional

import numpy as np

from .fitting import (check_grid, fit_exponent, integer, nested, pmf, real,
                      refusal, symmetric)
from .rng import (_block_len, counter_u01_array, counter_u64_array,
                  derive_key_range, step_index)

_TAG_GREEN_MC = 0x6EE1
_TAG_TAIL = 0x7A11
_TAG_CHAIN = 0xC4A1
_TAG_EXIT = 0xE217

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
# Above this many survivors, _killed_walk draws its blocks step-major.  Time
# of the step-major loop over the (m, b) block loop at m survivors that
# never die (simple walk, visits counted), median of 9 alternating calls of
# about 2**20 survivor-steps each, 2-vCPU VM:
#   m      256  512  768 1024 1536 4096 16384 40000
#   ratio 2.46 1.49 1.05 0.91 0.64 0.37  0.26  0.26
# (a second run: 2.34 1.46 1.05 0.80 0.62 0.36 0.27 0.27).  In the
# benchmark's green run (40,000 replicas) 768-1,536 tie within noise.
_STEP_MAJOR_SURVIVORS = 1024
# build_ladder_tables fills the renewal table v(m) for m <= _LADDER_M, and
# half_line_green extends it as far as a query needs (LadderTables.ensure)
_LADDER_M = 64


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
        offs = tuple(nested(self.offsets, integer, [None], "offsets"))
        p = tuple(pmf(self.probs, len(offs), "probs"))
        if len(set(offs)) != len(offs):
            raise ValueError("duplicate offsets")
        symmetric(zip(offs), p, "probs")
        if all(z == 0 or q == 0 for z, q in zip(offs, p)):
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


def build_ladder_tables(walk: SymmetricWalk1D) -> LadderTables:
    lh = ladder_heights(walk)
    tables = LadderTables(walk=walk, ladder_pmf=lh["pmf"],
                          v_table=np.array([1.0]),
                          truncation_mass=lh["truncation_mass"])
    tables.ensure(_LADDER_M)
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
    more than _DENSE_UNKNOWNS unknowns (max(s, t) - r0 + M + 2J + 9); the
    point is read by _green_point, at or below r0 too."""
    r0, s, t = _green_point(r0, s, t, killed_ok=True)
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


def _green_point(r0, s, t, killed_ok=False) -> tuple:
    """(r0, s, t), each read by fitting.integer, with s and t above the
    kill level r0 unless killed_ok."""
    r0, s, t = integer(r0, "r0"), integer(s, "s"), integer(t, "t")
    if not killed_ok and (s <= r0 or t <= r0):
        raise ValueError("s and t must exceed the kill level r0")
    return r0, s, t


def half_line_green_solve(walk: SymmetricWalk1D, r0: int, s: int, t: int) -> float:
    """Expected visits to t before entering (-infty, r0], from s.

    Exact up to floating point: the linear system on the shifted states
    1..R is closed with the far-field form A + sum_j B_j lam_j^x which the
    true solution obeys exactly beyond t + step range (bounded solutions of
    the homogeneous constant-coefficient recurrence).
    """
    r0, s, t = _green_point(r0, s, t)
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
    r0, s, t = _green_point(r0, s, t)
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
    monotone: once true for a count, true for every smaller one).

    Each block draws b counters for every survivor, as raw draws that
    rng.step_index compares with the walk's integer step thresholds.  While
    more than _STEP_MAJOR_SURVIVORS survive, b is short and the block is
    drawn step-major, one replica-long row per step: the rows are stepped in
    turn, with the survivors tracked by a mask and compacted at the block's
    end.  With fewer, each survivor's row of b steps is taken as a cumsum,
    each kill found with argmax and the survivors per step counted with
    bincount.  Either way the run ends on the exact step the one-counter
    loop ends.

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
        ctrs = ctr + done + np.arange(b, dtype=np.uint64)
        if m > _STEP_MAJOR_SURVIVORS:
            steps = offs[step_index(cum, counter_u64_array(keys[idx],
                                                           ctrs[:, None]))]
            live = np.ones(m, dtype=bool)
            left = []
            for row in steps:
                at += row
                np.logical_and(live, at >= lo, out=live)
                left.append(np.count_nonzero(live))
                done += 1
                if hit is not None:
                    visits[idx[live & (at == hit)]] += 1
                if not left[-1] or (stop and stop(left[-1])):
                    break
            alive.append(np.array(left))
            idx, at = idx[live], at[live]
            continue
        # displacement within the block; bounds shifted per replica instead
        move = np.cumsum(offs[step_index(cum, counter_u64_array(
            keys[idx, None], ctrs))], axis=1)
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
    reps = integer(reps, "reps", 2)   # for a standard error
    r0, s, t = _green_point(r0, s, t, killed_ok=True)
    tail_tol = real(tail_tol, "tail_tol")
    if tail_tol < 0:
        raise refusal(">= 0", tail_tol, "tail_tol")
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
    a_grid = check_grid(a_grid, 1, "a_grid")
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
    reps = integer(reps, "reps", 1)
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
    function is h(x) = (|x| v 1)^(-p2); p2 = inf means the indicator of
    the origin.
    """

    dimension: int
    base_offsets: np.ndarray      # (k, d)
    base_probs: np.ndarray        # (k,)
    p1: float
    c_pert: float = 1.0
    alt_offsets: Optional[np.ndarray] = None
    alt_probs: Optional[np.ndarray] = None
    p2: float = np.inf
    allow_low_p1: bool = False

    def __post_init__(self):
        self.dimension = integer(self.dimension, "dimension", 1)
        self.base_offsets, self.base_probs = _step_law(
            self.base_offsets, self.base_probs, self.dimension, "base")
        symmetric(map(tuple, self.base_offsets.tolist()),
                  self.base_probs.tolist(), "base_probs")
        # the theorem exponent divides by 2 p1 - 4; h must decay
        self.p1 = real(self.p1, "p1", above=2)
        self.c_pert = real(self.c_pert, "c_pert")
        if self.c_pert < 0:
            raise ValueError(f"c_pert must be >= 0 (got {self.c_pert})")
        if self.p2 != np.inf:
            self.p2 = real(self.p2, "p2", above=0)
        if not isinstance(self.allow_low_p1, bool):
            raise refusal("true or false", self.allow_low_p1, "allow_low_p1")
        if self.p1 <= 15 and not self.allow_low_p1:
            raise ValueError("p1 > 15 required for the Green-bound regime "
                             "(set allow_low_p1 for exploratory runs)")
        if self.alt_offsets is None and self.alt_probs is None:
            # default bias: push along the first coordinate
            self.alt_offsets = np.eye(1, self.dimension, dtype=np.int64)
            self.alt_probs = [1.0]
        self.alt_offsets, self.alt_probs = _step_law(
            self.alt_offsets, self.alt_probs, self.dimension, "alt")

    def h(self, norm: np.ndarray) -> np.ndarray:
        """The test function at states of Euclidean norm `norm`."""
        if np.isinf(self.p2):
            return (norm == 0.0).astype(float)
        return np.maximum(norm, 1.0) ** (-self.p2)

    def theorem_exponent(self) -> float:
        denom = 2.0 * self.p1 - 4.0
        return max(1.0 - (0.0 if np.isinf(self.p2) else self.p2) / denom,
                   0.5 + 13.0 / denom)


def _step_law(offsets, probs, d: int, name: str) -> tuple:
    """offsets as (k, d) int64 rows and probs, one per row, as a float
    array read by fitting.pmf; or a ValueError."""
    offsets = np.array(nested(offsets, integer, [None, d], f"{name}_offsets"),
                       dtype=np.int64)
    return offsets, np.array(pmf(probs, len(offsets), f"{name}_probs"))


def product_symmetric_base(walk: SymmetricWalk1D, d: int) -> tuple:
    """Extend a 1-d symmetric walk to Z^d as a product step distribution,
    of at most 65536 steps, or a ValueError."""
    d = integer(d, "dimension", 1)
    # len(offsets) ** d product rows; with 2+ offsets, d > 16 is over
    if d > 16 or len(walk.offsets) ** d > 1 << 16:
        raise ValueError(f"dimension {d} with {len(walk.offsets)} offsets "
                         "gives more than 65536 product steps")
    offs = np.array(np.meshgrid(*([walk.offsets] * d), indexing="ij"),
                    dtype=np.int64).reshape(d, -1).T
    probs = np.prod(np.meshgrid(*([walk.probs] * d), indexing="ij"), axis=0)
    return offs, probs.ravel()


def _pert_prob(spec: PerturbedChainSpec, norm: np.ndarray) -> np.ndarray:
    """Probability of an alt step at states of Euclidean norm `norm`."""
    p = np.minimum(1.0, spec.c_pert * np.maximum(norm, 1.0) ** (-spec.p1))
    return np.where(norm == 0, np.minimum(1.0, spec.c_pert), p)


class _SqNormTable:
    """f(sqrt(float(n2))) at states of integer squared norm n2.

    Values for n2 < len(tab) are read from `tab`, f at the norms of
    n2 = 0..min(n2_max, rng._BLOCK_CELLS) (_block_len(1, n2_max)), so the
    table is no larger than a block array; larger n2 are evaluated by f.  Either way the value is f at
    the state's float norm: for a state of squared norm below 2**53 the
    float sum of squared coordinates is exact, so it equals float(n2).
    """

    def __init__(self, f, n2_max: int):
        self.f = f
        self.tab = f(np.sqrt(np.arange(_block_len(1, n2_max) + 1,
                                       dtype=float)))

    def __call__(self, n2: np.ndarray) -> np.ndarray:
        v = self.tab.take(n2, mode="clip")
        far = np.flatnonzero(n2 >= len(self.tab))
        if far.size:
            v.flat[far] = self.f(np.sqrt(n2.flat[far].astype(float)))
        return v


def _chain_draws(spec: PerturbedChainSpec, keys: np.ndarray, k0: int,
                 k1: int) -> tuple:
    """The selector uniforms sel[j] and base steps base[j] (one row per
    replica) of chain step k0 + j + 1, j < k1 - k0, for replicas with keys
    `keys`: counters 3 (k0 + j) and 3 (k0 + j) + 1, one call each.  The
    base steps come from raw draws, which rng.step_index compares with the
    base table's integer thresholds (computed for the first block and
    cached); the selectors stay uniforms, for _chain_steps to compare with
    p_pert."""
    ctr = np.arange(3 * k0, 3 * k1, 3, dtype=np.uint64)[:, None]
    sel = counter_u01_array(keys, ctr)
    base = np.ascontiguousarray(spec.base_offsets.T).take(step_index(
        np.cumsum(spec.base_probs), counter_u64_array(keys, ctr + 1)), axis=1)
    # base[j][i, q] = base[q, j, i]: coordinate q of replica i's step
    return sel, base.transpose(1, 2, 0)


def _chain_steps(spec: PerturbedChainSpec, pos: np.ndarray, n2: np.ndarray,
                 sel: np.ndarray, steps: np.ndarray, keys: np.ndarray,
                 ctr: int, p_pert: _SqNormTable) -> None:
    """Chain step ctr + 1 of every replica, taken in place.

    pos holds one row per replica and n2[0] their integer squared norms;
    the step moves pos and writes the new squared norms to n2[1].  sel and
    steps are row j = ctr - k0 of a _chain_draws(spec, keys, k0, k1) block.
    A replica is perturbed when sel < p_pert(n2[0]); its row of `steps` is
    then replaced by an alt step picked by the raw draw at counter
    3 ctr + 2 of its key (a one-step alt law needs no draw).
    """
    # p_pert does not grow with the norm, so the table's last entry bounds
    # it past the table (where p_pert exceeds 2**-54, the least uniform,
    # rounding moves it far less than the step between consecutive squared
    # norms); the replicas past the table that this bound lets through are
    # checked exactly
    hit = np.less(sel, p_pert.tab.take(n2[0], mode="clip")).nonzero()[0]
    if hit.size:
        at = n2[0, hit]
        if at.max() >= len(p_pert.tab):
            hit = hit[sel[hit] < p_pert(at)]
        alt = np.zeros(hit.size, dtype=np.intp)
        if len(spec.alt_probs) > 1:
            alt = step_index(np.cumsum(spec.alt_probs),
                             counter_u64_array(keys[hit], 3 * ctr + 2))
        steps[hit] = spec.alt_offsets[alt]
    pos += steps
    np.add.reduce(np.square(pos), axis=1, out=n2[1])


def green_bound_experiment(spec: PerturbedChainSpec, n_grid, reps: int = 256,
                           seed: int = 0) -> dict:
    """Growth of sum_{k<n} E h(Y_k) along n_grid (every n >= 1), from the
    origin, with an exponent fit.

    Replica i takes its k-th step from counters 3k, 3k+1 and, when
    perturbed, 3k+2 of its key.  Every replica steps once per step through
    _chain_steps, from the uniforms of a _chain_draws block of about
    rng._BLOCK_CELLS (step, replica) cells; h is read by squared norm and
    summed along the block's steps in the order of a one-step loop.
    """
    reps = integer(reps, "reps", 1)
    n_grid = check_grid(n_grid, 1, "n_grid", least=2)
    n_max = n_grid[-1]
    d = spec.dimension
    keys = derive_key_range(seed, _TAG_CHAIN, n=reps)
    reach = (n_max - 1) * int(max(np.abs(spec.base_offsets).max(),
                                  np.abs(spec.alt_offsets).max()))
    p_pert = _SqNormTable(partial(_pert_prob, spec), d * reach ** 2)
    h = _SqNormTable(spec.h, d * reach ** 2)
    # one row per replica, laid out so that each coordinate is contiguous
    pos = np.zeros((d, reps), dtype=np.int64).T
    n2 = np.zeros((1, reps), dtype=np.int64)
    acc = h(n2[0])                           # k = 0 term
    curve = {1: float(acc.mean())}
    b = _block_len(reps)
    for k0 in range(0, n_max - 1, b):
        k1 = min(k0 + b, n_max - 1)
        sel, base = _chain_draws(spec, keys, k0, k1)
        # n2[j]: squared norms after k0 + j steps
        n2 = np.concatenate([n2[-1:], np.empty((k1 - k0, reps), np.int64)])
        for j in range(k1 - k0):
            _chain_steps(spec, pos, n2[j:j + 2], sel[j], base[j], keys,
                         k0 + j, p_pert)
        # the running sums, added left to right as acc += h one step at a
        # time would add them; row j holds them after k0 + j + 1 steps
        sums = h(n2[1:])
        sums[0] += acc
        for j in range(1, k1 - k0):
            np.add(sums[j - 1], sums[j], out=sums[j])
        acc = sums[-1]
        for n in n_grid:
            if k0 + 2 <= n <= k1 + 1:
                curve[n] = float(sums[n - 2 - k0].mean())
    ys = np.array([curve[n] for n in n_grid])
    return {
        "n_grid": n_grid,
        "curve": ys,
        "fit": fit_exponent(n_grid, ys),
        "theorem_exponent": spec.theorem_exponent(),
        "exploratory": spec.p1 <= 15,
    }


def _chain_exit_times(spec: PerturbedChainSpec, keys: np.ndarray, r: int,
                      cap: int) -> tuple:
    """Steps until chain replicas started at the origin leave the cube
    max|x| <= r (cap for those still inside after cap steps), and the
    number of those.

    Replica i takes its k-th step from counters 3k, 3k+1 and, when
    perturbed, 3k+2 of keys[i], as in green_bound_experiment.  The
    survivors step together through _chain_steps, from the uniforms of a
    _chain_draws block of about rng._BLOCK_CELLS (step, survivor) cells.  A
    replica that exits keeps stepping to the end of its block, where the
    survivors are compacted; only its exit time is kept.
    """
    d = spec.dimension
    p_pert = _SqNormTable(partial(_pert_prob, spec), d * r * r)
    exit_time = np.full(len(keys), cap, dtype=np.int64)
    idx = np.arange(len(keys))                  # the survivors
    pos = np.zeros((d, len(keys)), dtype=np.int64).T
    n2 = np.zeros((2, len(keys)), dtype=np.int64)
    k0 = 0
    while idx.size and k0 < cap:
        k1 = k0 + _block_len(idx.size, cap - k0)
        k = keys[idx]
        sel, base = _chain_draws(spec, k, k0, k1)
        alive = np.ones(idx.size, dtype=bool)
        for j in range(k1 - k0):
            _chain_steps(spec, pos, n2, sel[j], base[j], k, k0 + j, p_pert)
            n2 = n2[::-1]                       # the new norms to row 0
            out = (np.abs(pos) > r).any(axis=1) & alive
            if out.any():
                exit_time[idx[out]] = k0 + j + 1
                alive &= ~out
                if not alive.any():
                    break
        idx, n2 = idx[alive], n2[:, alive]
        pos = np.ascontiguousarray(pos[alive].T).T
        k0 = k1
    return exit_time, int(idx.size)


def check_exit_radii(r_grid) -> list:
    """r_grid, or ValueError unless the step cap of every entry r,
    _EXIT_CAP_FACTOR (r + 1)^2 + 1000, fits the int64 exit times."""
    r = max(r_grid)
    if _EXIT_CAP_FACTOR * (r + 1) ** 2 + 1000 > np.iinfo(np.int64).max:
        raise ValueError(f"r_grid entry {r} would cap its exit times at "
                         f"{_EXIT_CAP_FACTOR} (r + 1)^2 + 1000 steps, more "
                         "than 2**63 - 1")
    return r_grid


def cube_exit_time(spec: PerturbedChainSpec, r_grid, reps: int = 512,
                   seed: int = 0) -> dict:
    """Monte Carlo mean exit times from centered cubes of radius r >= 0, over
    reps >= 1 replicas (_chain_exit_times), with a power fit over r > 0."""
    reps = integer(reps, "reps", 1)
    r_grid = check_exit_radii(check_grid(r_grid, 0, "r_grid"))
    means = []
    truncated = {}
    for r in r_grid:
        cap = _EXIT_CAP_FACTOR * (r + 1) ** 2 + 1000
        keys = derive_key_range(seed, _TAG_EXIT, r, n=reps)
        exit_time, truncated[r] = _chain_exit_times(spec, keys, r, cap)
        means.append(float(exit_time.mean()))
    return {"r_grid": r_grid, "mean_exit": means,
            "fit": fit_exponent(r_grid, means), "truncated": truncated}
