"""Bridges from other parameterizations into rate matrices.

Two constructions map existing model families onto the chain model:

* Luce weights: setting the rate from j to i equal to the probability
  that i beats j reproduces the Luce model's choice probabilities
  exactly, on every choice set.
* An arbitrary pairwise win-probability matrix: the same construction
  (rate j -> i equals the probability i beats j) embeds any set of
  paired-comparison marginals, intransitive ones included, since rows
  and their transposes sum to one pairwise.

The embedding model ("blade-chest") scores ordered pairs with two
d-dimensional vectors per alternative and squashes the score through a
numpy logistic; its pairwise matrix is plugged into the chain
construction to extend it from pairs to larger sets.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import data as data_mod, luce, model as model_mod
from .base import BatchedModel, minimize
from .ctmc import RateMatrix, _size
from .errors import InvalidPairwise, OptimizerFailure
from .model import FitConfig, PcmcModel

_PAIR_TOL = 1e-10
_VARIANTS = ("distance", "inner")  # the blade-chest score forms


def expit(x):
    """The logistic 1 / (1 + exp(-x)), scipy.special.expit's formula in
    numpy: within 2 ulp of it, exactly 0.0 or 1.0 in the far tails. A
    module attribute that callers look up when called, like minimize."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _variant(variant) -> None:
    """Raise unless variant names a blade-chest score form."""
    if variant not in _VARIANTS:
        raise ValueError("variant must be one of %s, got %r" % (_VARIANTS, variant))


@dataclass(frozen=True)
class PairwiseMatrix:
    """Win probabilities for ordered pairs: p[i, j] is the probability
    that i is chosen from {i, j}. Off-diagonal entries lie in [0, 1]
    and complementary entries sum to one; the diagonal is zero."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, "universe size", 0))
        a = np.array(self.p, dtype=float)
        if a.shape != (self.n, self.n):
            raise InvalidPairwise("matrix must be %d x %d" % (self.n, self.n))
        if not np.all(np.isfinite(a)):
            raise InvalidPairwise("entries must be finite")
        off = ~np.eye(self.n, dtype=bool)
        if self.n > 1:
            vals = a[off]
            if vals.min() < 0 or vals.max() > 1:
                raise InvalidPairwise("off-diagonal entries must lie in [0, 1]")
            if np.abs(a + a.T - 1.0)[off].max() > _PAIR_TOL:
                raise InvalidPairwise("p[i, j] + p[j, i] must equal 1")
        np.fill_diagonal(a, 0.0)
        a.flags.writeable = False
        object.__setattr__(self, "p", a)


def q_from_btl(gamma) -> RateMatrix:
    """Rate matrix that reproduces a Luce model with the given weights.

    The rate from j to i is gamma_i / (gamma_i + gamma_j), so each pair
    sums to exactly one and the chain's stationary distribution on any
    set equals the Luce choice distribution on that set.
    """
    g = luce._weights(gamma)
    denom = g[:, None] + g[None, :]
    # entry [j, i] must be g_i / (g_i + g_j): column i carries g_i.
    rates = g[None, :] / denom
    # take the upper triangle as the exact complement so each pair sums
    # to one without rounding residue
    iu = np.triu_indices(len(g), k=1)
    rates[iu] = 1.0 - rates[(iu[1], iu[0])]
    return RateMatrix(n=len(g), rates=rates)


def q_from_pairwise(p: PairwiseMatrix) -> RateMatrix:
    """Rate matrix whose pair restrictions reproduce the given win
    probabilities: the rate from j to i is p[i, j]."""
    return RateMatrix(n=p.n, rates=p.p.T)


@dataclass(frozen=True)
class BladeChest(BatchedModel):
    """Pairwise comparison model with two embeddings per alternative.

    The matchup score of i over j is either the inner-product form
    b_i . c_j - b_j . c_i or the distance form
    ||b_i - c_j||^2 - ||b_j - c_i||^2, squashed through a logistic to a
    win probability. Choice sets larger than two are handled by feeding
    the pairwise matrix into the chain construction.
    """

    n: int
    d: int
    blades: np.ndarray
    chests: np.ndarray
    variant: str = "distance"

    def __post_init__(self):
        _variant(self.variant)
        b = np.array(self.blades, dtype=float)
        c = np.array(self.chests, dtype=float)
        object.__setattr__(self, "n", _size(self.n, "universe size", 2))
        object.__setattr__(self, "d", _size(self.d, "embedding dimension"))
        if b.shape != (self.n, self.d) or c.shape != (self.n, self.d):
            raise ValueError("embeddings must both be n x d")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("embeddings must be finite")
        b.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "blades", b)
        object.__setattr__(self, "chests", c)

    def matchups(self) -> np.ndarray:
        """Antisymmetric score matrix; entry [i, j] is i's score over j."""
        if self.variant == "inner":
            m = self.blades @ self.chests.T
            return m - m.T
        sq = ((self.blades[:, None, :] - self.chests[None, :, :]) ** 2).sum(axis=2)
        return sq - sq.T

    def pairwise(self) -> PairwiseMatrix:
        return PairwiseMatrix(n=self.n, p=expit(self.matchups()))

    @cached_property
    def _chain(self) -> PcmcModel:
        return PcmcModel(q=q_from_pairwise(self.pairwise()))

    def to_pcmc(self) -> PcmcModel:
        return self._chain

    def probabilities_many(self, idx: np.ndarray) -> np.ndarray:
        return self._chain.probabilities_many(idx)


def _embedding_rates(bc: BladeChest):
    """Rate matrix of an embedding model (its diagonal is unused) and the
    pullback that carries a rate-matrix gradient through the logistic
    and the scores to the blades then the chests, flattened."""
    s = expit(bc.matchups())

    def pullback(g):
        # q_ji = sigmoid(M_ij), and M = F - F^T for the variant's score F.
        dm = g.T * s * (1.0 - s)
        df = dm - dm.T
        b, c = bc.blades, bc.chests
        if bc.variant == "inner":
            gb, gc = df @ c, df.T @ b
        else:
            gb = 2.0 * (df.sum(axis=1)[:, None] * b - df @ c)
            gc = 2.0 * (df.sum(axis=0)[:, None] * c - df.T @ b)
        return np.concatenate([gb.ravel(), gc.ravel()])

    return s.T, pullback


def fit_bladechest(dataset, d: int, variant: str = BladeChest.variant,
                   cfg: FitConfig = None) -> BladeChest:
    """Fit embeddings by maximizing the smoothed chain log-likelihood.

    The 2*d*n embedding coordinates are unconstrained; the induced rate
    matrix is always canonical because complementary win probabilities
    sum to one. The objective is the rate-matrix fitter's, with its exact
    adjoint gradient carried through the logistic and the matchup scores
    by the chain rule. Started from small random embeddings drawn with
    cfg.seed. L-BFGS-B never accepts a step that raises the objective,
    so its final point is the best it saw.
    """
    cfg = cfg or FitConfig()
    d = _size(d, "embedding dimension")
    n = dataset.n

    def build(x):
        half = n * d
        return BladeChest(
            n=n, d=d,
            blades=x[:half].reshape(n, d),
            chests=x[half:].reshape(n, d),
            variant=variant,
        )

    rng = np.random.default_rng(cfg.seed)
    x0 = rng.standard_normal(2 * n * d) / math.sqrt(d)
    build(x0)  # the start's own checks reject a bad variant before the tally
    objective = model_mod._SetObjective(
        data_mod._smoothed(data_mod._set_terms(dataset), cfg.smoothing_alpha))
    res = minimize(
        model_mod._minimand(objective, lambda x: _embedding_rates(build(x))),
        x0, jac=True, method="L-BFGS-B",
        options={"maxiter": cfg.max_iters, "ftol": model_mod._FTOL},
    )
    if res.fun >= model_mod._PENALTY:
        raise OptimizerFailure("embedding fit produced no finite likelihood")
    return build(res.x)
