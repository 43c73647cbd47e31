"""Out-of-sample evaluation: empirical distributions, prediction error,
and learning curves.

The error of a model on a test set is the average, over test
observations, of the L1 distance between the model's distribution on
the observation's choice set and the empirical distribution of choices
on that set in the test data. It lies in [0, 2], lower is better.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import data as data_mod, luce, model as model_mod, param
from .base import ChoiceModel, probabilities_many
from .ctmc import Distribution
from .errors import EmptyDataset, PcmcError, UnseenSet
from .model import FitConfig


def empirical_distribution(test: data_mod.ChoiceDataset, subset) -> Distribution:
    """Observed choice frequencies for one set in the test data."""
    s = tuple(sorted(int(i) for i in subset))
    tables = data_mod.counts(test)
    if s not in tables.choice_counts:
        raise UnseenSet("set %s never occurs in the dataset" % (s,))
    per_item = tables.choice_counts[s]
    mass = np.array([per_item[i] for i in s], dtype=float)
    return Distribution(support=s, mass=mass / mass.sum())


@dataclass(frozen=True)
class ErrorReport:
    """Test error plus its per-set breakdown.

    error is the observation-weighted mean of per_set_errors; n_test
    counts test observations.
    """

    error: float
    per_set_errors: dict
    n_test: int

    def __post_init__(self):
        if not (0.0 <= self.error <= 2.0 + 1e-12):
            raise ValueError("mean L1 error must lie in [0, 2], got %r" % self.error)


def prediction_error(model: ChoiceModel, test: data_mod.ChoiceDataset) -> ErrorReport:
    """Mean per-observation L1 gap between model and test frequencies.

    Every distinct set in the test data is scored, whether or not the
    model ever saw it during training.
    """
    if len(test) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    per_set, weights = {}, {}
    for idx, w in data_mod._set_terms(test):
        sets = list(map(tuple, idx.tolist()))
        pred = np.array(probabilities_many(model, sets))
        l1 = np.abs(pred - w / w.sum(axis=1, keepdims=True)).sum(axis=1)
        per_set.update(zip(sets, l1.tolist()))
        weights.update(zip(sets, w.sum(axis=1).tolist()))
    per_set = dict(sorted(per_set.items()))
    # cumsum adds one set at a time in sorted set order, so the error
    # does not depend on how the sets are grouped by size
    weighted = np.cumsum([weights[s] * e for s, e in per_set.items()])[-1]
    return ErrorReport(error=float(weighted) / len(test),
                       per_set_errors=per_set, n_test=len(test))


@dataclass(frozen=True)
class FitSpec:
    """Recipe for fitting one model family inside a learning curve.

    kind is one of "pcmc", "mnl", "mmnl", "bladechest". alpha is the
    smoothing pseudocount; k the mixture size (None picks the default
    matching the rate matrix's parameter count); d and variant configure
    the embedding model.
    """

    kind: str
    alpha: float = 0.1
    k: int = None
    d: int = 2
    variant: str = "distance"
    max_iters: int = 200

    def __post_init__(self):
        if self.kind not in ("pcmc", "mnl", "mmnl", "bladechest"):
            raise ValueError("unknown model kind %r" % self.kind)

    @property
    def label(self) -> str:
        return self.kind

    def fit(self, dataset: data_mod.ChoiceDataset, seed: int = 0) -> ChoiceModel:
        cfg = FitConfig(smoothing_alpha=self.alpha, seed=seed,
                        max_iters=self.max_iters)
        if self.kind == "pcmc":
            return model_mod.fit(dataset, cfg).params
        if self.kind == "mnl":
            return luce.fit_mnl(dataset, alpha=self.alpha)
        if self.kind == "mmnl":
            return luce.fit_mmnl(dataset, k=self.k, alpha=self.alpha, seed=seed)
        return param.fit_bladechest(dataset, d=self.d, variant=self.variant, cfg=cfg)


@dataclass(frozen=True)
class LearningCurve:
    """Aggregated errors by model and training fraction.

    mean_errors and std_errors map model label to one value per
    fraction; permutations is the requested repeat count;
    cell_permutations records how many repeats succeeded for each cell;
    failures lists (label, fraction, permutation, message) for fits
    that raised.
    """

    fractions: tuple
    models: tuple
    mean_errors: dict
    std_errors: dict
    permutations: int
    cell_permutations: dict
    failures: tuple

    def __post_init__(self):
        if self.permutations < 1:
            raise ValueError("need at least one permutation")


def learning_curve(dataset: data_mod.ChoiceDataset, specs: Sequence[FitSpec],
                   fractions: Sequence[float], permutations: int,
                   seed: int = 0, train_share: float = 0.75) -> LearningCurve:
    """Repeatedly split, fit on growing prefixes of train, score on test.

    Each permutation reshuffles the data into train/test at train_share.
    A fraction f trains on the first floor(f * train size) observations
    (at least one). Cells where a fit raises a library error are
    recorded as failures and excluded from that cell's aggregates.
    """
    if permutations < 1:
        raise ValueError("need at least one permutation")
    fracs = tuple(float(f) for f in fractions)
    if not fracs or any(not (0.0 < f <= 1.0) for f in fracs):
        raise ValueError("fractions must lie in (0, 1]")
    labels = tuple(s.label for s in specs)
    if len(labels) != len(set(labels)):
        raise ValueError("model labels must be distinct")

    rng = np.random.default_rng(seed)
    split_seeds = rng.integers(0, 2 ** 63 - 1, size=permutations)
    fit_seeds = rng.integers(0, 2 ** 63 - 1, size=(permutations, len(specs)))

    errors = {lab: [[] for _ in fracs] for lab in labels}
    failures = []
    for p in range(permutations):
        train, test = data_mod.split(dataset, train_share, int(split_seeds[p]))
        for fi, f in enumerate(fracs):
            take = max(1, math.floor(f * len(train)))
            part = train._rows(slice(take))
            for si, spec in enumerate(specs):
                try:
                    fitted = spec.fit(part, seed=int(fit_seeds[p, si]))
                    errors[spec.label][fi].append(
                        prediction_error(fitted, test).error
                    )
                except PcmcError as exc:
                    failures.append((spec.label, f, p, str(exc)))

    mean_errors, std_errors, cells = {}, {}, {}
    for lab in labels:
        means, stds, ns = [], [], []
        for cell in errors[lab]:
            ns.append(len(cell))
            if cell:
                means.append(float(np.mean(cell)))
                stds.append(float(np.std(cell, ddof=1)) if len(cell) > 1 else 0.0)
            else:
                means.append(float("nan"))
                stds.append(float("nan"))
        mean_errors[lab] = tuple(means)
        std_errors[lab] = tuple(stds)
        cells[lab] = tuple(ns)
    return LearningCurve(
        fractions=fracs, models=labels, mean_errors=mean_errors,
        std_errors=std_errors, permutations=permutations,
        cell_permutations=cells, failures=tuple(failures),
    )
