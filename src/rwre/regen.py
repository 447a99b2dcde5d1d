"""Regeneration detection, slab estimators and renewal diagnostics.

A regeneration time is a strict level record that the walk never undercuts
afterwards.  The future condition needs the infinite path, so detection on
a finite horizon uses a confirmation margin (the walk must climb `margin`
levels above the record without dipping below it) plus a tail cut that
discards candidates too close to the final running maximum.  Unconfirmed
candidates are counted and excluded from slabs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fitting import check_grid, integer, nested, real
from .walk import WalkPath


@dataclass
class RegenerationRecord:
    tau: np.ndarray          # increasing times, confirmed and unconfirmed
    confirmed: np.ndarray    # per-tau flags
    slab_dtau: np.ndarray    # (n_slabs,) durations between confirmed taus
    slab_dx: np.ndarray      # (n_slabs, d) displacements between confirmed taus
    margin: int

    @property
    def n_slabs(self) -> int:
        return len(self.slab_dtau)

    @property
    def n_unconfirmed(self) -> int:
        return int((~self.confirmed).sum())

    def slab_csv_rows(self) -> list:
        """Rows [k, dtau, dx_1..dx_d, 1] of the slabs, k from 1, as lists
        of Python ints, built in one array call."""
        n = self.n_slabs
        return np.column_stack([np.arange(1, n + 1), self.slab_dtau,
                                self.slab_dx, np.ones(n, dtype=np.int64)
                                ]).tolist()


@dataclass
class VelocityEstimate:
    v_hat: np.ndarray
    se: np.ndarray
    n_slabs: int


@dataclass
class DiffusionEstimate:
    D_hat: np.ndarray


def detect_regenerations(path: WalkPath, margin: int = 20,
                         tail_cut: Optional[int] = None) -> RegenerationRecord:
    """Scan a path for regeneration times.

    A time n >= 1 is a candidate when levels[n] is a strict record and no
    later level within the horizon drops below it.  A candidate is
    confirmed when the walk subsequently reaches levels[n] + margin and
    levels[n] does not exceed (final running max - tail_cut).
    """
    margin = integer(margin, "margin", 1)
    tail_cut = integer(margin if tail_cut is None else tail_cut, "tail_cut",
                       margin)
    lev = path.levels
    n = len(lev)
    # suffix minima over [k, end]
    suffix_min = np.minimum.accumulate(lev[::-1])[::-1]
    prefix_max = path.running_max
    is_record = np.empty(n, dtype=bool)
    is_record[0] = False
    is_record[1:] = lev[1:] > prefix_max[:-1]
    cand = is_record & (suffix_min == lev)
    times = np.nonzero(cand)[0]
    final_max = int(prefix_max[-1])
    # reaching levels[k] + margin after k: because no future dip below
    # levels[k], it suffices that the global max is high enough
    confirmed = (lev[times] + margin <= final_max) & \
                (lev[times] <= final_max - tail_cut)

    conf_times = times[confirmed]
    if conf_times.size >= 2:
        slab_dtau = np.diff(conf_times).astype(np.int64)
        slab_dx = np.diff(path.sites[conf_times], axis=0).astype(np.int64)
    else:
        slab_dtau = np.empty(0, dtype=np.int64)
        slab_dx = np.empty((0, path.sites.shape[1]), dtype=np.int64)
    return RegenerationRecord(
        tau=times.astype(np.int64),
        confirmed=confirmed,
        slab_dtau=slab_dtau,
        slab_dx=slab_dx,
        margin=margin,
    )


def _gather_slabs(records) -> tuple:
    if isinstance(records, RegenerationRecord):
        records = [records]
    dtaus = [r.slab_dtau for r in records]
    dxs = [r.slab_dx for r in records]
    dtau = np.concatenate(dtaus) if dtaus else np.empty(0, dtype=np.int64)
    dx = np.concatenate(dxs) if dxs else np.empty((0, 0))
    return dtau, dx


def estimate_velocity(records) -> VelocityEstimate:
    """Ratio estimator mean(dX)/mean(dtau) with batch-mean standard errors."""
    dtau, dx = _gather_slabs(records)
    n = len(dtau)
    if n < 2:
        raise ValueError("need at least 2 confirmed slabs")
    v_hat = dx.mean(axis=0) / dtau.mean()
    n_batches = min(32, n)
    edges = np.linspace(0, n, n_batches + 1).astype(int)
    batch_v = np.array([
        dx[a:b].sum(axis=0) / dtau[a:b].sum() for a, b in zip(edges[:-1], edges[1:])
    ])
    se = batch_v.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return VelocityEstimate(v_hat=v_hat, se=se, n_slabs=n)


def estimate_diffusion(records, v) -> DiffusionEstimate:
    """Slab covariance estimator of the diffusion matrix; v is d reals."""
    dtau, dx = _gather_slabs(records)
    n = len(dtau)
    if n < 2:
        raise ValueError("need at least 2 confirmed slabs")
    v = np.array(nested(v, real, [dx.shape[1]], "v"))
    resid = dx - dtau[:, None] * v
    D = (resid.T @ resid) / n / dtau.mean()
    return DiffusionEstimate(D_hat=(D + D.T) / 2.0)


def renewal_diagnostics(records, p: float = 2.0, n_grid=(4, 16, 64, 256),
                        paths=None) -> dict:
    """Empirical shapes behind the basic renewal bounds.

    Reports E[tau_l^p]/l^p over regeneration counts l and overshoot moments
    E|tau_{J_m} - m|^p over time marks m (J_m = first regeneration index at
    or after m); when `paths` gives the paths' level arrays, also
    backtrack-depth moments and the frequency of slow level growth
    {(X_{n+m}-X_m).u <= sqrt(n)}.  Used to probe the regeneration moment
    hypothesis empirically.
    """
    if not records:
        raise ValueError("records must be nonempty")
    p = real(p, "p", above=0)
    n_grid = check_grid(n_grid, 1, "n_grid")

    taus = [r.tau[r.confirmed] for r in records]
    # E[tau_l^p] / l^p, l limited by the fewest confirmed regenerations
    min_count = min(len(t) for t in taus)
    tau_ratio = [(ell, float(np.mean([float(t[ell - 1]) ** p for t in taus]))
                  / ell ** p) for ell in n_grid if ell <= min_count]

    overshoot = []
    for m in n_grid:
        vals = [abs(float(t[np.searchsorted(t, m, side="left")]) - m) ** p
                for t in taus if t.size and t[-1] >= m]
        if vals:
            overshoot.append((m, float(np.mean(vals)), len(vals)))

    report = {
        "p": p,
        "tau_moment_ratio": tau_ratio,
        "overshoot_moment": overshoot,
        "n_records": len(records),
    }
    if paths is not None:
        report.update(_path_diagnostics(paths, p, n_grid))
    return report


def _path_diagnostics(level_seqs, p: float, n_grid: list) -> dict:
    """Backtrack-depth moments and slow-growth frequencies of level arrays,
    over a sorted grid."""
    backtrack = []
    for m in n_grid:
        vals = [float(lev[m] - lev[m:].min()) ** p for lev in level_seqs
                if m < len(lev)]
        if vals:
            backtrack.append((m, float(np.mean(vals)), len(vals)))
    ldp = []
    for n in n_grid:
        worst = 0.0
        worst_m = None
        for m in n_grid:
            hits = [float(lev[m + n] - lev[m]) <= np.sqrt(n)
                    for lev in level_seqs if m + n < len(lev)]
            if hits:
                f = float(np.mean(hits))
                if worst_m is None or f > worst:
                    worst, worst_m = f, m
        if worst_m is not None:
            ldp.append((n, worst, worst_m))
    return {"p": p, "backtrack_moment": backtrack, "ldp_frequency": ldp}
