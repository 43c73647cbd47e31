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
from .base import ChoiceModel, probabilities_rows
from .ctmc import Distribution, _index, _seed, _size
from .errors import PcmcError, UnseenSet
from .model import FitConfig

_KINDS = ("pcmc", "mnl", "mmnl", "bladechest")

# Share of the observations each learning-curve permutation trains on.
_TRAIN_SHARE = 0.75


def empirical_distribution(test: data_mod.ChoiceDataset, subset) -> Distribution:
    """Observed choice frequencies for one set in the test data."""
    s = tuple(sorted(map(_index, subset)))
    for idx, w in data_mod._set_terms(test):
        if idx.shape[1] == len(s):
            for row in np.flatnonzero((idx == s).all(axis=1)):
                return Distribution(support=s, mass=w[row] / w[row].sum())
    raise UnseenSet("set %s never occurs in the dataset" % (s,))


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
    per_set, weights = {}, {}
    for idx, w in data_mod._set_terms(test):
        pred = probabilities_rows(model, idx)
        sets = list(map(tuple, idx.tolist()))
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
    """Recipe for fitting one model family, for `pcmc fit` and inside a
    learning curve.

    kind is one of "pcmc", "mnl", "mmnl", "bladechest". alpha is the
    smoothing pseudocount; k the mixture size (None picks the default
    matching the rate matrix's parameter count); d and variant configure
    the embedding model. max_iters caps the L-BFGS-B iterations of the
    pcmc and bladechest fits only: mnl keeps its own cap of 10,000
    fixed-point iterations and mmnl 500 L-BFGS-B iterations per restart.
    """

    kind: str
    alpha: float = FitConfig.smoothing_alpha
    k: int = None
    d: int = 2
    variant: str = param.BladeChest.variant
    max_iters: int = FitConfig.max_iters

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown model kind %r" % self.kind)
        param._variant(self.variant)
        FitConfig(smoothing_alpha=self.alpha, max_iters=self.max_iters)  # FitConfig's checks
        if self.k is not None:
            _size(self.k, "mixture size")
        _size(self.d, "embedding dimension")

    def fit(self, dataset: data_mod.ChoiceDataset, seed: int = 0) -> ChoiceModel:
        return self._fit(dataset, seed)[0]

    def _fit(self, dataset, seed):
        """The fitted model and, for pcmc, its FitReport (otherwise None)."""
        cfg = FitConfig(smoothing_alpha=self.alpha, seed=seed,
                        max_iters=self.max_iters)
        if self.kind == "pcmc":
            report = model_mod.fit(dataset, cfg)
            return report.params, report
        if self.kind == "mnl":
            return luce.fit_mnl(dataset, alpha=self.alpha), None
        if self.kind == "mmnl":
            return luce.fit_mmnl(dataset, k=self.k, alpha=self.alpha, seed=seed), None
        return param.fit_bladechest(dataset, d=self.d, variant=self.variant, cfg=cfg), None


@dataclass(frozen=True)
class LearningCurve:
    """Aggregated errors by model and training fraction.

    mean_errors and std_errors map model kind to one value per
    fraction; cell_permutations records how many repeats succeeded for
    each cell; failures lists (kind, fraction, permutation, message) for
    fits that raised.
    """

    fractions: tuple
    models: tuple
    mean_errors: dict
    std_errors: dict
    cell_permutations: dict
    failures: tuple


def learning_curve(dataset: data_mod.ChoiceDataset, specs: Sequence[FitSpec],
                   fractions: Sequence[float], permutations: int,
                   seed: int = 0) -> LearningCurve:
    """Repeatedly split, fit on growing prefixes of train, score on test.

    Each permutation reshuffles the data into train and test at
    _TRAIN_SHARE. A fraction f trains on the first floor(f * train size)
    observations (at least one). Cells where a fit raises a library
    error are recorded as failures and excluded from that cell's
    aggregates.
    """
    permutations = _size(permutations, "permutation count")
    fracs = tuple(float(f) for f in fractions)
    if not fracs or any(not (0.0 < f <= 1.0) for f in fracs):
        raise ValueError("fractions must lie in (0, 1]")
    kinds = tuple(s.kind for s in specs)
    if len(kinds) != len(set(kinds)):
        raise ValueError("model kinds must be distinct")

    rng = np.random.default_rng(_seed(seed))
    split_seeds = rng.integers(0, 2 ** 63 - 1, size=permutations)
    fit_seeds = rng.integers(0, 2 ** 63 - 1, size=(permutations, len(specs)))

    errors = {kind: [[] for _ in fracs] for kind in kinds}
    failures = []
    for p in range(permutations):
        train, test = data_mod.split(dataset, _TRAIN_SHARE, int(split_seeds[p]))
        for fi, f in enumerate(fracs):
            take = max(1, math.floor(f * len(train)))
            part = train._rows(slice(take))
            for si, spec in enumerate(specs):
                try:
                    fitted = spec.fit(part, seed=int(fit_seeds[p, si]))
                    errors[spec.kind][fi].append(
                        prediction_error(fitted, test).error
                    )
                except PcmcError as exc:
                    failures.append((spec.kind, f, p, str(exc)))

    mean_errors, std_errors, cells = {}, {}, {}
    for kind in kinds:
        means, stds, ns = [], [], []
        for cell in errors[kind]:
            ns.append(len(cell))
            if cell:
                means.append(float(np.mean(cell)))
                stds.append(float(np.std(cell, ddof=1)) if len(cell) > 1 else 0.0)
            else:
                means.append(float("nan"))
                stds.append(float("nan"))
        mean_errors[kind] = tuple(means)
        std_errors[kind] = tuple(stds)
        cells[kind] = tuple(ns)
    return LearningCurve(
        fractions=fracs, models=kinds, mean_errors=mean_errors,
        std_errors=std_errors, cell_permutations=cells, failures=tuple(failures),
    )
