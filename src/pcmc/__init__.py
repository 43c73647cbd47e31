"""Discrete-choice modeling with pairwise-rate Markov chains.

The core model represents choice as a continuous-time Markov chain over
the alternatives: offered a menu, the decision process is the chain
restricted to that menu, and the choice probabilities are its
stationary distribution. The package also ships Luce-model baselines
(single and mixture), a pairwise embedding model, axiom diagnostics
(regularity, contraction, uniform expansion, cycle counting), dataset
handling, out-of-sample evaluation, and a command-line interface.
"""

from .base import ChoiceModel
from .ctmc import (
    Distribution,
    RateMatrix,
    RestrictedGenerator,
    closed_classes,
    restrict,
    stationary,
)
from .data import (
    ChoiceDataset,
    CountTables,
    counts,
    gen_bladechest_circle,
    gen_mnl_simplex,
    gen_random_q,
    load,
    sample,
    save,
    split,
)
from .luce import (
    MmnlModel,
    MnlModel,
    btl_pair,
    fit_mmnl,
    fit_mnl,
)
from .model import (
    FitConfig,
    FitReport,
    PcmcModel,
    finite_difference_gradient,
    fit,
    log_likelihood,
    smoothed_log_likelihood,
)
from .param import (
    BladeChest,
    PairwiseMatrix,
    bladechest_pair,
    fit_bladechest,
    mnl_to_pcmc,
    q_from_btl,
    q_from_pairwise,
)
from .axioms import (
    ContractionSummary,
    Partition,
    RegularityViolation,
    Tournament,
    check_contractible,
    contraction_invariance,
    cyclic_triplets,
    expand_copies,
    harary_moser_bound,
    regularity_violations,
    run_audit,
    tournament_from_model,
    tournament_from_pairwise,
    verify_uniform_expansion,
)
from .evaluate import (
    ErrorReport,
    FitSpec,
    LearningCurve,
    empirical_distribution,
    learning_curve,
    prediction_error,
)
from .serialize import (
    dumps,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ChoiceModel",
    "Distribution", "RateMatrix", "RestrictedGenerator",
    "closed_classes", "restrict", "stationary",
    "ChoiceDataset", "CountTables", "counts", "split", "sample",
    "gen_random_q", "gen_mnl_simplex", "gen_bladechest_circle",
    "load", "save",
    "MnlModel", "MmnlModel", "btl_pair", "fit_mnl", "fit_mmnl",
    "PcmcModel", "FitConfig", "FitReport",
    "log_likelihood", "smoothed_log_likelihood", "fit",
    "finite_difference_gradient",
    "PairwiseMatrix", "BladeChest", "bladechest_pair", "fit_bladechest",
    "mnl_to_pcmc", "q_from_btl", "q_from_pairwise",
    "Partition", "ContractionSummary", "Tournament", "RegularityViolation",
    "check_contractible", "contraction_invariance", "expand_copies",
    "verify_uniform_expansion", "regularity_violations",
    "cyclic_triplets", "harary_moser_bound",
    "tournament_from_pairwise", "tournament_from_model", "run_audit",
    "ErrorReport", "FitSpec", "LearningCurve",
    "empirical_distribution", "prediction_error", "learning_curve",
    "dumps", "model_to_dict", "model_from_dict", "save_model", "load_model",
    "errors",
]
