"""Recovering a hidden multiset of integers via anonymous comparison queries."""

from .analysis import (berndiv_bound_check, estimator_success_prob,
                       kl_bernoulli, ml_decode)
from .bench import (ExperimentConfig, ExperimentResult, fit_scaling,
                    run_experiment)
from .dense import solve_dense, solve_naive
from .instances import bin_instance, cluster_instance, sample_instance
from .kposition import queries_for_confidence
from .model import (CapacityError, DomainError, Instance, NoiseModel, Oracle,
                    k_position_true, make_instance)
from .reports import SolverReport
from .seeds import derive_seed
from .walker import WalkConfig, choose_walk_length, find_tth, solve_walker

__all__ = [
    "CapacityError", "DomainError", "ExperimentConfig", "ExperimentResult",
    "Instance", "NoiseModel", "Oracle", "SolverReport", "WalkConfig",
    "berndiv_bound_check", "bin_instance", "choose_walk_length",
    "cluster_instance", "derive_seed", "estimator_success_prob", "find_tth",
    "fit_scaling", "k_position_true", "kl_bernoulli", "make_instance",
    "ml_decode", "queries_for_confidence", "run_experiment",
    "sample_instance", "solve_dense", "solve_naive", "solve_walker",
]
