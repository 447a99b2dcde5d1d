"""Simulation laboratory for ballistic random walks in random environments."""

__version__ = "0.1.0"

from .environment import (Environment, EnvironmentModel, HypothesisReport,
                          StepSupport, check_hypotheses, compute_h,
                          derive_env_seed, make_environment)
from .walk import (WalkPath, diffusive_scale, simulate, simulate_finals_many,
                   simulate_paths_many)
from .regen import (DiffusionEstimate, RegenerationRecord, VelocityEstimate,
                    detect_regenerations, estimate_diffusion,
                    estimate_velocity, renewal_diagnostics)
from .pair import (CouplingOutcome, JointRegenRecord, YChainSample,
                   coupled_triple, coupling_decay, first_joint_regeneration,
                   first_joint_regenerations, intersection_curve,
                   sample_Y_chain, sample_Ybar_chain,
                   support_inheritance_check)
from .clt import (QuenchedCLTReport, centered_mean_bound, clt_check,
                  degeneracy_directions, quenched_mean_variance,
                  quenched_samples)
from .envprocess import ergodic_average, ergodic_runs, variation_proxy
from .green import (LadderTables, PerturbedChainSpec, SymmetricWalk1D,
                    build_ladder_tables, cube_exit_time, first_passage_tail,
                    green_bound_experiment, half_line_green,
                    half_line_green_mc, half_line_green_solve,
                    ladder_heights, simple_walk)
from .fitting import ExponentFit, fit_exponent
