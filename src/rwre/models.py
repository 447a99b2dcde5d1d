"""Standard laboratory models used across experiments and tests.

The underlying theory fixes only an i.i.d. product law with bounded steps;
the concrete families here are the laboratory's choices for experiments.
"""

from __future__ import annotations

from .environment import EnvironmentModel, StepSupport


def support_2d(steps) -> StepSupport:
    return StepSupport(dimension=2, steps=tuple(tuple(z) for z in steps),
                       u_hat=(1, 0))


def drift_model() -> EnvironmentModel:
    """Homogeneous benchmark: p = {e1: 1/2, e2: 1/4, -e2: 1/4}, u = e1.

    Classical random walk with velocity (1/2, 0) and step covariance
    diag(1/4, 1/2); levels never decrease, so it regenerates at every
    fresh e1 step.
    """
    return EnvironmentModel(
        support=support_2d([(1, 0), (0, 1), (0, -1)]),
        kind="deterministic", probs=(0.5, 0.25, 0.25))


def dirichlet_drift_model() -> EnvironmentModel:
    """Random environment on {e1, e2, -e2} with weights favoring e1.

    The ellipticity floor mixes in the uniform vector so that the drift
    projection is bounded below over the whole parameter simplex
    (non-nestling by construction)."""
    return EnvironmentModel(
        support=support_2d([(1, 0), (0, 1), (0, -1)]),
        kind="dirichlet", alpha=(4.0, 1.0, 1.0), floor=0.1)


def degenerate_direction_model() -> EnvironmentModel:
    """J = {e1, e2} with p = (1/2, 1/2): u.X_n is deterministic along
    u = (1,1)/sqrt(2), the degenerate direction of the diffusion matrix."""
    return EnvironmentModel(
        support=support_2d([(1, 0), (0, 1)]),
        kind="deterministic", probs=(0.5, 0.5))


def backtracking_model() -> EnvironmentModel:
    """Homogeneous model with a small -e1 weight, so the running maximum
    genuinely overshoots the final level (positive variation proxy)."""
    return EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0), (0, 1), (0, -1)]),
        kind="deterministic", probs=(0.4, 0.3, 0.15, 0.15))


def dirichlet_backtracking_model() -> EnvironmentModel:
    """Random environment with backtracking steps, for exercising the
    joint-regeneration rounds and renewal diagnostics."""
    return EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0), (0, 1), (0, -1)]),
        kind="dirichlet", alpha=(5.0, 2.0, 1.5, 1.5), floor=0.05)
