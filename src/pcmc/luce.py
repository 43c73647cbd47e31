"""Luce-family models: multinomial logit and mixtures of logits.

An MNL model assigns each alternative a positive weight; the choice
probability from any set is the chosen weight over the set's total.
Fitting uses the spectral fixed-point method: the maximum-likelihood
weights are the stationary distribution of a Markov chain whose rates
are built from the data, reweighted by the current estimate, iterated
to a fixed point.

A mixture of K logit components has per-component weights on the
simplex; its choice probabilities are the weighted average of the
component probabilities. Mixtures are fit by quasi-Newton ascent on the
log-likelihood in an unconstrained parameterization (log-weights via
softmax, component utilities via per-set softmax), with random restarts.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ctmc, data as data_mod
from .base import LOG_FLOOR, BatchedModel, minimize
from .errors import (
    InvalidK,
    NoConvergence,
    NonpositiveGamma,
    NotConnected,
    OptimizerFailure,
)

_MNL_TOL = 1e-9  # L1 change in the estimate at which fit_mnl stops


@dataclass(frozen=True)
class MnlModel(BatchedModel):
    """Multinomial logit model with strictly positive weights.

    Weights are normalized to sum to one on construction; the model is
    scale-invariant so this loses nothing.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = _weights(self.gamma)
        g = g / g.sum()
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return len(self.gamma)

    def probabilities_many(self, idx: np.ndarray) -> np.ndarray:
        """Weight over total weight on each row of checked (m, s) ids."""
        g = self.gamma[idx]
        return g / g.sum(axis=1, keepdims=True)


def _weights(gamma) -> np.ndarray:
    """Luce weights as a float vector, checked nonempty and > 0 with a finite sum."""
    g = np.array(gamma, dtype=float)
    if g.ndim != 1 or len(g) < 1:
        raise ValueError("gamma must be a nonempty vector")
    with np.errstate(over="ignore"):  # NaN, inf or an overflowing sum fails the test
        if not (g.min() > 0 and np.isfinite(g.sum())):
            raise NonpositiveGamma("weights must be finite and > 0, with a finite sum")
    return g


def fit_mnl(dataset, alpha: float = 0.0, max_iters: int = 10000) -> MnlModel:
    """Maximum-likelihood Luce weights via the spectral fixed point.

    Each iteration builds a chain whose rate from j to i accumulates,
    for every set offering both, the (smoothed) count of i divided by
    the current total weight of the set; the stationary distribution of
    that chain is the next weight estimate. At the fixed point the
    stationary distribution equals the maximum-likelihood weights.

    Raises NotConnected when the comparison graph is not strongly
    connected along rates above ctmc.TOL_EDGE, the edges the stationary
    kernel sees (the MLE then sits on the boundary and does not exist),
    and NoConvergence when max_iters passes without the estimate
    settling to within _MNL_TOL in L1.
    """
    max_iters = ctmc._size(max_iters, "max_iters")
    n = dataset.n
    groups = data_mod._smoothed(data_mod._set_terms(dataset), alpha)

    def chain_for(gamma):
        # rate j -> i: sum over sets offering both of w_i / gamma(S)
        return data_mod._pair_scatter(n, [
            (idx, w / gamma[idx].sum(axis=1, keepdims=True)) for idx, w in groups]).T.copy()

    gamma = np.full(n, 1.0 / n)
    gen = chain_for(gamma)
    if not ctmc._reach(gen[None]).all():
        raise NotConnected(
            "comparison graph is not strongly connected; "
            "add smoothing (alpha > 0) or more data"
        )

    for _ in range(max_iters):
        dist = ctmc.stationary(ctmc.restrict(ctmc.RateMatrix(n=n, rates=gen), range(n)))
        new_gamma = np.clip(dist.mass, LOG_FLOOR, None)
        new_gamma = new_gamma / new_gamma.sum()
        if np.abs(new_gamma - gamma).sum() < _MNL_TOL:
            return MnlModel(gamma=new_gamma)
        gamma = new_gamma
        gen = chain_for(gamma)
    raise NoConvergence(max_iters)


@dataclass(frozen=True)
class MmnlModel(BatchedModel):
    """Finite mixture of Luce models with simplex mixing weights."""

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        comps = tuple(self.components)
        if len(comps) < 1:
            raise InvalidK("a mixture needs at least one component")
        if w.ndim != 1 or len(w) != len(comps):
            raise ValueError("need one weight per component")
        with np.errstate(over="ignore"):  # NaN or an overflowing sum fails the test
            if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-10):
                raise ValueError("weights must be finite, nonnegative and sum to 1")
        sizes = {c.n for c in comps}
        if len(sizes) != 1:
            raise ValueError("components disagree on universe size: %s" % sizes)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def k(self) -> int:
        return len(self.components)

    def probabilities_many(self, idx: np.ndarray) -> np.ndarray:
        """Weighted average of the component masses, row by row."""
        mass = sum(w * c.probabilities_many(idx) for w, c in zip(self.weights, self.components))
        return mass / mass.sum(axis=1, keepdims=True)


def default_mixture_size(n: int) -> int:
    """Mixture size that matches the parameter count of a full rate
    matrix: smallest k with k*(n+1) >= n*(n-1) + 1."""
    return max(1, math.ceil((n * (n - 1) + 1) / (n + 1)))


def _mixture_split(x, k, n):
    """The (k, n) component utilities theta and the mixing weights,
    a softmax of the logits beta, from x = (theta, beta)."""
    beta = x[k * n:]
    wexp = np.exp(beta - beta.max())
    return x[: k * n].reshape(k, n), wexp / wexp.sum()


def _mixture_objective(x, k, n, groups):
    """Negative smoothed log-likelihood and gradient in the
    unconstrained (theta, beta) parameterization, over the size-grouped
    (idx, smoothed counts) layout."""
    theta, w = _mixture_split(x, k, n)

    value = 0.0
    grad_theta = np.zeros((k, n))
    g_per_comp = np.zeros(k)
    for idx, cnt in groups:
        t = theta[:, idx]                              # (k, m, s)
        t = t - t.max(axis=2, keepdims=True)
        e = np.exp(t)
        p = e / e.sum(axis=2, keepdims=True)
        mix = np.clip(np.einsum("c,cms->ms", w, p), LOG_FLOOR, None)
        value += float((cnt * np.log(mix)).sum())
        inner = p * (cnt / mix)                        # (k, m, s)
        g_per_comp += inner.sum(axis=(1, 2))
        np.add.at(grad_theta, (slice(None), idx), w[:, None, None] * (
            inner - p * inner.sum(axis=2, keepdims=True)))
    grad_beta = w * (g_per_comp - float(w @ g_per_comp))
    return -value, -np.concatenate([grad_theta.ravel(), grad_beta])


def fit_mmnl(dataset, k: int = None, alpha: float = 0.0, seed: int = 0,
             restarts: int = 5, max_iters: int = 500) -> MmnlModel:
    """Fit a mixture of k Luce models by restarted quasi-Newton ascent.

    When k is omitted it defaults to default_mixture_size(n). The first
    start copies a single fitted Luce model into every component (with
    small noise on all but the first), so the final likelihood is never
    worse than the best single-component model up to optimizer noise;
    where that Luce fit fails, the first start's utilities are all zero.
    The restarts' streams are spawned from seed: an int >= 0, a
    SeedSequence, or a BitGenerator or Generator with a SeedSequence to
    spawn from. Any other seed, such as RandomState's MT19937, raises InvalidK.
    """
    n = dataset.n
    if k is None:
        k = default_mixture_size(n)
    k = ctmc._size(k, "mixture size")
    restarts = ctmc._size(restarts, "restart count")
    max_iters = ctmc._size(max_iters, "max_iters")
    try:
        streams = np.random.default_rng(ctmc._seed(seed)).spawn(restarts)
    except TypeError:
        raise InvalidK("seed %r cannot spawn the %d restart streams: its bit "
                       "generator has no SeedSequence" % (seed, restarts)) from None
    groups = data_mod._smoothed(data_mod._set_terms(dataset), alpha)

    try:
        base = fit_mnl(dataset, alpha=max(float(alpha), 1e-3))
        base_theta = np.log(base.gamma)
    except (NoConvergence, NotConnected):
        base_theta = np.zeros(n)

    best_x, best_val = None, math.inf
    for r, rng in enumerate(streams):
        if r == 0:
            theta0 = np.tile(base_theta, (k, 1))
            if k > 1:
                theta0[1:] += 0.01 * rng.standard_normal((k - 1, n))
        else:
            theta0 = rng.standard_normal((k, n))
        x0 = np.concatenate([theta0.ravel(), np.zeros(k)])
        res = minimize(
            _mixture_objective, x0, args=(k, n, groups), jac=True,
            method="L-BFGS-B", options={"maxiter": max_iters},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    if best_x is None:
        raise OptimizerFailure("all %d mixture fits diverged" % restarts)

    theta, weights = _mixture_split(best_x, k, n)
    comps = []
    for c in range(k):
        g = np.exp(theta[c] - theta[c].max())
        comps.append(MnlModel(gamma=np.clip(g, LOG_FLOOR, None)))
    return MmnlModel(weights=weights, components=tuple(comps))
