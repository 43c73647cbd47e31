"""The pairwise-rate Markov chain choice model.

The model's parameters are the off-diagonal rates of a continuous-time
chain over the universe of alternatives. Offered a choice set, the
decision process is the chain restricted to that set, and the choice
probabilities are its stationary distribution. The pair-sum condition
q_ij + q_ji >= 1 guarantees every restriction has a unique stationary
distribution.

Choice probabilities do not change under Q -> cQ, so the pair-sum
condition is a normalisation rather than a constraint on what the model
can express. Fitting maximizes the smoothed log-likelihood by L-BFGS-B
without constraints, over the log-rates of the pairs offered together
in some observed set, using the exact adjoint gradient of the
stationary distributions: one extra batched linear solve per set size,
whatever the number of rates. The fitted rates are then divided by
their smallest pair sum when it is below one.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ctmc, data as data_mod
from .base import LOG_FLOOR, minimize, probabilities_many
from .ctmc import Distribution, RateMatrix, TOL_CONSTRAINT
from .errors import (
    EmptyDataset,
    InfeasibleStart,
    MultipleClosedClasses,
    OptimizerFailure,
    SingularSystem,
)

# Objective value _minimand returns for every failure; large enough
# that line search backs off.
_PENALTY = 1e12


@dataclass(frozen=True)
class PcmcModel:
    """Choice model parameterized by a rate matrix.

    The matrix must be canonical (every pair sum at least 1 within
    tolerance) so choice probabilities exist for every set.
    """

    q: RateMatrix

    def __post_init__(self):
        if not isinstance(self.q, RateMatrix):
            object.__setattr__(self, "q", RateMatrix(n=len(self.q), rates=self.q))
        if not self.q.is_canonical:
            raise ValueError(
                "rate matrix violates the pair-sum condition by %.3e"
                % self.q.pair_sum_violation()
            )

    @property
    def n(self) -> int:
        return self.q.n

    def probabilities(self, subset: Sequence[int]) -> Distribution:
        return choice_probabilities(self, subset)

    def probabilities_many(self, sets: Sequence) -> list:
        return ctmc.stationary_many(self.q, sets)


def choice_probabilities(model: PcmcModel, subset: Sequence[int]) -> Distribution:
    """Stationary distribution of the chain restricted to the set."""
    return ctmc.stationary(ctmc.restrict(model.q, subset))


def log_likelihood(model, dataset) -> float:
    """Log-likelihood of the observations under any choice model,
    probabilities floored at 1e-12 inside the logs."""
    if len(dataset) == 0:
        raise EmptyDataset("log-likelihood of an empty dataset")
    total = 0.0
    for idx, w in data_mod._set_terms(dataset):
        p = np.array(probabilities_many(model, idx.tolist()))
        total += float((w * np.log(np.clip(p, LOG_FLOOR, None))).sum())
    return total


def smoothed_log_likelihood(q: RateMatrix, dataset, alpha: float) -> float:
    """Log-likelihood with alpha pseudocounts added to every member of
    every observed set. This is the objective the fitters maximize.
    A set with no unique stationary distribution raises its own
    MultipleClosedClasses or SingularSystem. It solves no adjoint, so
    an A singular in double precision (see _SetObjective) passes."""
    if len(dataset) == 0:
        raise EmptyDataset("log-likelihood of an empty dataset")
    obj = _SetObjective(data_mod._smoothed(data_mod._set_terms(dataset), alpha))
    return obj.loglik(q.rates)


class _SetObjective:
    """Smoothed log-likelihood over the distinct sets of a dataset, from
    its size-grouped (idx, smoothed counts) layout.

    Stationary distributions for all sets of equal size are solved in
    one batched call of the chain kernel, reducible sets included, and
    their adjoints in one batched linear solve. A failed set raises: MultipleClosedClasses or
    SingularSystem from the kernel, LinAlgError from an adjoint that is
    singular in double precision. _minimand scores each _PENALTY.
    """

    def __init__(self, groups):
        self.groups = groups

    def loglik_and_grad(self, rates, grad=True):
        """Smoothed log-likelihood and its gradient in the full rate
        matrix (None unless grad).

        Adjoint of the replaced-row system A pi = e_last, A being G^T
        with its last row set to ones (Golub & Meyer, SIAM J. Alg. Disc.
        Meth. 7(2), 1986): A^T mu = w / pi, 0 at the log floor, with mu's
        last entry then zeroed; each set adds pi_i (mu_i - mu_j) to
        dL/dq_ij. In exact arithmetic A is nonsingular: the rows of G^T
        sum to zero, so the dropped row loses nothing, and the row of
        ones rules out pi, which spans the null space of G^T."""
        total = 0.0
        out = np.zeros(rates.shape) if grad else None
        for sets_arr, w in self.groups:
            pi, sub = ctmc._stationary_rows(rates, sets_arr)
            live = pi > LOG_FLOOR
            total += float((w * np.log(np.where(live, pi, LOG_FLOOR))).sum())
            if not grad:
                continue
            g = np.where(live, w / np.where(live, pi, 1.0), 0.0)
            sub[:, :, -1] = 1.0  # now A^T
            mu = np.linalg.solve(sub, g[:, :, None])[:, :, 0]
            mu[:, -1] = 0.0
            np.add.at(out, (sets_arr[:, :, None], sets_arr[:, None, :]),
                      pi[:, :, None] * (mu[:, :, None] - mu[:, None, :]))
        return total, out

    def loglik(self, rates):
        """Smoothed log-likelihood; makes no adjoint solve."""
        return self.loglik_and_grad(rates, grad=False)[0]


def _minimand(objective, parameterize):
    """Function for minimize(jac=True) over x: minus the smoothed
    log-likelihood of the rates in parameterize(x) -> (rates, pullback),
    and minus its gradient carried back to x by pullback. The one place
    where a failure becomes _PENALTY with a zero gradient: a row sum of
    the rates that is not finite, a set with no unique stationary
    distribution, an adjoint A singular in double precision though not
    in exact arithmetic (LinAlgError), or a value or gradient that is
    not finite."""

    def fun(x, grad=True):
        rates, pullback = parameterize(x)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if np.isfinite(rates.sum(axis=1)).all():
                    value, g = objective.loglik_and_grad(rates, grad)
                    g = -pullback(g) if grad else None
                    if math.isfinite(value) and (not grad or np.isfinite(g).all()):
                        return -value, g
            except (MultipleClosedClasses, SingularSystem, np.linalg.LinAlgError):
                pass
        return _PENALTY, np.zeros_like(x)

    return fun


def finite_difference_gradient(fun: Callable, x: np.ndarray, step: float) -> np.ndarray:
    """Forward-difference gradient: (f(x + step e_k) - f(x)) / step.

    No fitter uses it: both chain fits take the exact adjoint gradient
    of _SetObjective. It stays as a public helper for checking a
    gradient by hand.
    """
    x = np.asarray(x, dtype=float)
    f0 = fun(x)
    grad = np.empty_like(x)
    for k in range(len(x)):
        xk = x.copy()
        xk[k] += step
        grad[k] = (fun(xk) - f0) / step
    return grad


@dataclass
class FitConfig:
    """Knobs for maximum-likelihood fitting.

    init chooses the starting point: "empirical_pairs" converts pairwise
    win counts into starting rates, "uniform_half" starts every rate at
    one half.
    """

    max_iters: int = 200
    ftol: float = 1e-8
    smoothing_alpha: float = 0.1
    seed: int = 0
    init: str = "empirical_pairs"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1, got %r" % self.max_iters)
        if not self.ftol > 0:
            raise ValueError("ftol must be positive, got %r" % self.ftol)
        data_mod._pseudocount(self.smoothing_alpha)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: the model, its smoothed log-likelihood, solver
    iteration count, whether the solver reported success, and the
    residual pair-sum violation of the returned parameters."""

    params: PcmcModel
    loglik: float
    iterations: int
    converged: bool
    constraint_violation: float


def _empirical_pairs_start(n, layout):
    """Starting rates from empirical win rates with add-one smoothing.

    wins[i, j] counts how often i was chosen from a set also offering j,
    over all observed sets. The rate into i is the smoothed win rate of
    i over j, so each pair starts with rates summing to exactly one.
    """
    wins = data_mod._pair_scatter(n, layout)
    rates = ((wins + 1.0) / (wins + wins.T + 2.0)).T
    np.fill_diagonal(rates, 0.0)
    return rates


def fit(dataset, cfg: FitConfig = None, start: PcmcModel = None) -> FitReport:
    """Maximize the smoothed log-likelihood over canonical rate matrices.

    Only the rates of pairs offered together in some observed set reach
    the likelihood. L-BFGS-B fits their logarithms; every other rate is
    fixed at one half, and alternatives that never appear in a set are
    named in a warning. A start seeds the fitted rates only.

    The fitted rates are then divided by their smallest pair sum when it
    is below one, which leaves the likelihood unchanged and the matrix
    canonical. The reported log-likelihood is that of the returned
    matrix.
    """
    cfg = cfg or FitConfig()
    if len(dataset) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    n = dataset.n
    layout = data_mod._set_terms(dataset)
    free = data_mod._pair_scatter(n, [(idx, 1.0) for idx, _ in layout]) > 0
    missing = np.flatnonzero(~free.any(axis=1)).tolist()
    if missing:
        warnings.warn(
            "alternatives %s never appear in any choice set; they are "
            "excluded from fitting and given rates of 0.5" % missing
        )

    if start is not None:
        if start.n != n:
            raise InfeasibleStart("start is over %d alternatives, data has %d"
                                  % (start.n, n))
        if start.q.pair_sum_violation() > TOL_CONSTRAINT:
            raise InfeasibleStart("start violates the pair-sum condition")
        # a zero rate has no logarithm, and a set mass at LOG_FLOOR gets
        # no gradient; 1e-6 keeps the masses of such a start above it
        x0 = np.log(np.maximum(start.q.rates[free], 1e-6))
    elif cfg.init == "uniform_half":
        x0 = np.full(int(free.sum()), math.log(0.5))
    elif cfg.init == "empirical_pairs":
        x0 = np.log(_empirical_pairs_start(n, layout)[free])
    else:
        raise ValueError("unknown init %r" % cfg.init)

    fixed = np.full((n, n), 0.5)
    np.fill_diagonal(fixed, 0.0)

    def parameterize(theta):
        rates = fixed.copy()
        with np.errstate(over="ignore"):
            rates[free] = np.exp(theta)
        return rates, lambda g: g[free] * rates[free]

    objective = _SetObjective(data_mod._smoothed(layout, cfg.smoothing_alpha))
    res = minimize(
        _minimand(objective, parameterize), x0, jac=True, method="L-BFGS-B",
        options={"maxiter": cfg.max_iters, "ftol": cfg.ftol},
    )
    rates = parameterize(res.x)[0]
    smallest = (rates + rates.T)[free].min()
    if smallest < 1.0:
        rates[free] /= smallest
    q = RateMatrix(n=n, rates=rates)
    try:
        value = objective.loglik(q.rates)
    except (MultipleClosedClasses, SingularSystem) as err:
        raise OptimizerFailure("the fit reached no finite likelihood") from err
    return FitReport(
        params=PcmcModel(q=q),
        loglik=value,
        iterations=int(res.nit),
        converged=bool(res.success),
        constraint_violation=q.pair_sum_violation(),
    )
