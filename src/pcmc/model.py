"""The pairwise-rate Markov chain choice model.

The model's parameters are the off-diagonal rates of a continuous-time
chain over the universe of alternatives. Offered a choice set, the
decision process is the chain restricted to that set, and the choice
probabilities are its stationary distribution. The pair-sum condition
q_ij + q_ji >= 1 guarantees every restriction has a unique stationary
distribution.

Fitting maximizes the smoothed log-likelihood with a sequential
quadratic programming solver under the pair-sum constraints, using the
exact adjoint gradient of the stationary distributions: one extra
batched linear solve per set size, whatever the number of rates.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from . import ctmc, data as data_mod
from .base import probabilities_many
from .ctmc import Distribution, RateMatrix, TOL_CONSTRAINT
from .errors import (
    EmptyDataset,
    InfeasibleStart,
    MultipleClosedClasses,
    NegativeAlpha,
    OptimizerFailure,
    PcmcError,
    SingularSystem,
)

LOG_FLOOR = 1e-12

# Objective value returned when a stationary solve fails at an
# infeasible iterate; large enough that line search backs off.
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
    terms = data_mod._set_terms(dataset, 0.0)
    masses = probabilities_many(model, [s for s, _, _ in terms])
    total = 0.0
    for (_, _, w), p in zip(terms, masses):
        keep = w > 0
        total += float(w[keep] @ np.log(np.clip(p[keep], LOG_FLOOR, None)))
    return total


def smoothed_log_likelihood(q: RateMatrix, dataset, alpha: float) -> float:
    """Log-likelihood with alpha pseudocounts added to every member of
    every observed set. This is the objective the fitters maximize."""
    if len(dataset) == 0:
        raise EmptyDataset("log-likelihood of an empty dataset")
    terms = data_mod._set_terms(dataset, float(alpha))
    obj = _SetObjective(terms)
    value = obj.loglik(q.rates)
    if value is None:
        raise MultipleClosedClasses(
            ctmc.closed_classes(ctmc.restrict(q, range(q.n)))
        )
    return value


class _SetObjective:
    """Smoothed log-likelihood over the distinct sets of a dataset.

    Stationary distributions for all sets of equal size are solved in
    one batched call of the chain kernel, which sends the sets it cannot
    certify to the careful per-set solver.
    """

    def __init__(self, terms):
        self.groups = [(idx, np.array([terms[k][2] for k in ks])) for ks, idx
                       in ctmc._size_groups([s for s, _, _ in terms])]

    def loglik_and_grad(self, rates, grad=True):
        """Smoothed log-likelihood and its gradient in the full rate
        matrix (None unless grad); value None and gradient zero when a
        set has no unique stationary distribution.

        Adjoint of the replaced-row system A pi = e_last (Golub & Meyer,
        SIAM J. Alg. Disc. Meth. 7(2), 1986): A^T mu = w / pi, 0 at the
        log floor, with mu's last entry then zeroed; each set adds
        pi_i (mu_i - mu_j) to dL/dq_ij."""
        total = 0.0
        out = np.zeros(rates.shape) if grad else None
        for sets_arr, w in self.groups:
            try:
                pi, ok, a = ctmc._stationary_rows(rates, sets_arr)
            except (MultipleClosedClasses, SingularSystem):
                return None, (np.zeros(rates.shape) if grad else None)
            live = pi > LOG_FLOOR
            total += float((w * np.log(np.where(live, pi, LOG_FLOOR))).sum())
            if not grad:
                continue
            g = np.where(live, w / np.where(live, pi, 1.0), 0.0)
            mu = np.zeros(sets_arr.shape)
            try:
                mu[ok] = np.linalg.solve(a[ok].transpose(0, 2, 1),
                                         g[ok, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                ok[:] = False
            for row in np.flatnonzero(~ok):
                mu[row] = np.linalg.lstsq(a[row].T, g[row], rcond=None)[0]
            mu[:, -1] = 0.0
            np.add.at(out, (sets_arr[:, :, None], sets_arr[:, None, :]),
                      pi[:, :, None] * (mu[:, :, None] - mu[:, None, :]))
        return total, out

    def loglik(self, rates):
        """Smoothed log-likelihood, or None when any set has no unique
        stationary distribution."""
        return self.loglik_and_grad(rates, grad=False)[0]


def finite_difference_gradient(fun: Callable, x: np.ndarray, step: float) -> np.ndarray:
    """Forward-difference gradient: (f(x + step e_k) - f(x)) / step.

    Forward steps are used deliberately: with nonnegative rates and
    pair-sum constraints, increasing one coordinate never leaves the
    feasible region.
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
        if self.smoothing_alpha < 0:
            raise NegativeAlpha(
                "smoothing pseudocount must be >= 0, got %r" % self.smoothing_alpha)


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


def _offdiag_mask(n):
    return ~np.eye(n, dtype=bool)


def _x_to_rates(x, n):
    rates = np.zeros((n, n))
    rates[_offdiag_mask(n)] = np.clip(x, 0.0, None)
    return rates


def _repair(x, n):
    """Project a candidate back onto the feasible region: clip negatives
    and scale up any pair whose rates sum to less than one."""
    rates = _x_to_rates(x, n)
    sums = rates + rates.T
    dead = (sums <= 0) & _offdiag_mask(n)
    if dead.any():
        rates[dead] = 0.5
        sums = rates + rates.T
    with np.errstate(divide="ignore"):
        factor = np.where(sums < 1.0, 1.0 / sums, 1.0)
    np.fill_diagonal(factor, 1.0)
    rates = rates * factor
    np.fill_diagonal(rates, 0.0)
    return rates[_offdiag_mask(n)]


def _empirical_pairs_start(n, tables):
    """Starting rates from empirical win rates with add-one smoothing.

    wins[i, j] counts how often i was chosen from a set also offering j,
    over all observed sets. The rate into i is the smoothed win rate of
    i over j, so each pair starts with rates summing to exactly one.
    """
    wins = np.zeros((n, n))
    for s, per_item in tables.choice_counts.items():
        idx = np.array(s, dtype=int)
        won = np.array([per_item[i] for i in s], dtype=float)
        wins[np.ix_(idx, idx)] += won[:, None]
    np.fill_diagonal(wins, 0.0)
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p_ij = (wins[i, j] + 1.0) / (wins[i, j] + wins[j, i] + 2.0)
            rates[j, i] = p_ij
    return rates


def fit(dataset, cfg: FitConfig = None, start: PcmcModel = None) -> FitReport:
    """Maximize the smoothed log-likelihood over canonical rate matrices.

    Alternatives that never appear in an observed set carry no signal;
    they are dropped for the optimization (with a warning) and rejoined
    afterwards with rates of one half against everything.

    The returned parameters are the best feasible point seen anywhere in
    the run (start, intermediate iterates, or final point), projected
    back onto the constraint set. OptimizerFailure is raised only when
    no candidate yields a finite objective.
    """
    cfg = cfg or FitConfig()
    if len(dataset) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    n = dataset.n

    seen = sorted({i for _, s in dataset.observations for i in s})
    if len(seen) < n:
        missing = sorted(set(range(n)) - set(seen))
        warnings.warn(
            "alternatives %s never appear in any choice set; they are "
            "excluded from fitting and given rates of 0.5" % missing
        )
        remap = {item: k for k, item in enumerate(seen)}
        sub_obs = tuple(
            (remap[c], tuple(remap[i] for i in s)) for c, s in dataset.observations
        )
        sub_data = data_mod.ChoiceDataset(n=len(seen), observations=sub_obs)
        sub_start = None
        if start is not None:
            idx = np.array(seen, dtype=int)
            sub_start = PcmcModel(q=RateMatrix(
                n=len(seen), rates=start.q.rates[np.ix_(idx, idx)]))
        sub_report = fit(sub_data, cfg, sub_start)
        rates = np.full((n, n), 0.5)
        np.fill_diagonal(rates, 0.0)
        idx = np.array(seen, dtype=int)
        rates[np.ix_(idx, idx)] = sub_report.params.q.rates
        q = RateMatrix(n=n, rates=rates)
        return replace(sub_report, params=PcmcModel(q=q),
                       constraint_violation=q.pair_sum_violation())

    terms = data_mod._set_terms(dataset, cfg.smoothing_alpha)
    objective = _SetObjective(terms)
    mask = _offdiag_mask(n)
    m = int(mask.sum())

    def fun(x, grad=True):
        value, g = objective.loglik_and_grad(_x_to_rates(x, n), grad)
        if value is None or not math.isfinite(value):
            return _PENALTY, np.zeros(m)
        return -value, (np.where(x < 0, 0.0, -g[mask]) if grad else None)

    if start is not None:
        if start.n != n:
            raise InfeasibleStart("start is over %d alternatives, data has %d"
                                  % (start.n, n))
        if start.q.pair_sum_violation() > TOL_CONSTRAINT:
            raise InfeasibleStart("start violates the pair-sum condition")
        x0 = start.q.rates[mask]
    elif cfg.init == "uniform_half":
        x0 = np.full(m, 0.5)
    elif cfg.init == "empirical_pairs":
        tables = data_mod.counts(dataset)
        x0 = _empirical_pairs_start(n, tables)[mask]
        x0 = _repair(x0, n)
    else:
        raise ValueError("unknown init %r" % cfg.init)

    pos_map = np.full((n, n), -1, dtype=int)
    pos_map[mask] = np.arange(m)
    pair_a, pair_b = [], []
    for i in range(n):
        for j in range(i + 1, n):
            pair_a.append(pos_map[i, j])
            pair_b.append(pos_map[j, i])
    pair_a = np.array(pair_a, dtype=int)
    pair_b = np.array(pair_b, dtype=int)
    cons_jac = np.zeros((len(pair_a), m))
    cons_jac[np.arange(len(pair_a)), pair_a] = 1.0
    cons_jac[np.arange(len(pair_b)), pair_b] = 1.0

    constraints = [{
        "type": "ineq",
        "fun": lambda x: x[pair_a] + x[pair_b] - 1.0,
        "jac": lambda x: cons_jac,
    }]

    tracked = {"x": x0.copy(), "val": fun(x0, False)[0]}

    def callback(xk):
        v = fun(xk, False)[0]
        if v < tracked["val"]:
            tracked["x"], tracked["val"] = xk.copy(), v

    iterations, success = 0, False
    candidates = [x0, tracked["x"]]
    try:
        res = minimize(
            fun, x0, jac=True, method="SLSQP",
            bounds=[(0.0, None)] * m, constraints=constraints,
            callback=callback,
            options={"maxiter": cfg.max_iters, "ftol": cfg.ftol},
        )
        iterations = int(res.nit)
        success = bool(res.success)
        candidates = [x0, tracked["x"], res.x]
    except (PcmcError, FloatingPointError, np.linalg.LinAlgError) as exc:
        failure = exc
    else:
        failure = None

    best_x, best_val = None, math.inf
    for cand in candidates:
        xr = _repair(cand, n)
        v = fun(xr, False)[0]
        if v < best_val:
            best_x, best_val = xr, v
    if best_x is None or best_val >= _PENALTY:
        raise OptimizerFailure("no candidate produced a finite likelihood",
                               report=None)

    q = RateMatrix(n=n, rates=_x_to_rates(best_x, n))
    report = FitReport(
        params=PcmcModel(q=q),
        loglik=-best_val,
        iterations=iterations,
        converged=success,
        constraint_violation=q.pair_sum_violation(),
    )
    if failure is not None:
        raise OptimizerFailure("optimizer raised %r" % failure, report=report)
    return report
