"""Continuous-time Markov chain machinery.

A chain over n alternatives is described by its off-diagonal transition
rates. Restricting the chain to a subset keeps only the rates among the
subset's members and rebuilds the diagonal so rows sum to zero. The
stationary distribution of a restriction is found by communicating-class
analysis followed by GTH state reduction, which needs no certificate;
states outside the single closed class receive zero mass. One reduction
serves both paths: stationary_many reduces each set size in one batch
and sends only the sets that are not irreducible, or whose masses are
not finite, down the per-set path, which makes the same reduction on
the closed class alone.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph

from .errors import (
    EmptySubset,
    IndexOutOfRange,
    MultipleClosedClasses,
    SingularSystem,
)

# Off-diagonal entries at or below this magnitude count as structural
# zeros when building the transition graph.
TOL_EDGE = 1e-12

# Slack allowed on the pair-sum condition q_ij + q_ji >= 1 before a
# matrix stops counting as canonical.
TOL_CONSTRAINT = 1e-9

# Stationary mass must sum to one within this tolerance.
MASS_TOL = 1e-10


def _as_rate_array(rates, n=None):
    q = np.array(rates, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("rates must be a square matrix, got shape %s" % (q.shape,))
    if n is not None and q.shape[0] != n:
        raise ValueError("rates are %dx%d but n=%d" % (q.shape[0], q.shape[1], n))
    off = ~np.eye(q.shape[0], dtype=bool)
    # a nan or inf entry, even on the diagonal, makes its row sum nan or inf
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite((q * off).sum(axis=1))):
            raise ValueError("rates and their row sums must be finite")
    if np.any(q[off] < 0):
        raise ValueError("off-diagonal rates must be nonnegative")
    np.fill_diagonal(q, 0.0)
    q.flags.writeable = False
    return q


@dataclass(frozen=True)
class RateMatrix:
    """Off-diagonal transition rates of a chain over n alternatives.

    The diagonal is not stored as data; it is forced to zero on
    construction. Whether the pair-sum condition q_ij + q_ji >= 1 holds
    is exposed via is_canonical; matrices built from raw data may
    violate it and remain usable, they just lose the guarantee of a
    unique closed class on every restriction.
    """

    n: int
    rates: np.ndarray
    meta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one alternative")
        object.__setattr__(self, "rates", _as_rate_array(self.rates, self.n))

    @property
    def is_canonical(self) -> bool:
        return self.pair_sum_violation() <= TOL_CONSTRAINT

    def pair_sum_violation(self) -> float:
        """Largest amount by which any pair sum q_ij + q_ji falls short of 1.

        Zero when every pair satisfies the condition (and trivially for
        a one-alternative universe).
        """
        if self.n < 2:
            return 0.0
        sums = self.rates + self.rates.T
        off = ~np.eye(self.n, dtype=bool)
        return float(max(0.0, 1.0 - sums[off].min()))


def _check_subset(subset, n) -> tuple:
    members = tuple(int(i) for i in subset)
    if len(members) == 0:
        raise EmptySubset("choice set must be nonempty")
    seen = set()
    for i in members:
        if i < 0 or i >= n:
            raise IndexOutOfRange("alternative %d outside [0, %d)" % (i, n))
        if i in seen:
            raise ValueError("duplicate alternative %d in subset" % i)
        seen.add(i)
    return members


@dataclass(frozen=True)
class RestrictedGenerator:
    """Infinitesimal generator of a chain restricted to a subset.

    The matrix includes the diagonal: row sums are zero and off-diagonal
    entries are nonnegative. The subset records which original
    alternative each row/column refers to, in the order given at
    restriction time.
    """

    subset: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        s = len(self.subset)
        if m.shape != (s, s):
            raise ValueError("generator shape %s does not match subset size %d" % (m.shape, s))
        if not np.all(np.isfinite(m)):
            raise ValueError("generator entries must be finite")
        off = ~np.eye(s, dtype=bool)
        if s > 1 and m[off].min() < 0:
            raise ValueError("off-diagonal generator entries must be nonnegative")
        # Row sums are exactly zero when the diagonal is built here; allow
        # a little slack scaled by the matrix magnitude for hand-built ones.
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m.sum(axis=1)).max() > 1e-12 * scale:
            raise ValueError("generator rows must sum to zero")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "subset", tuple(int(i) for i in self.subset))

    @property
    def size(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class Distribution:
    """Probability mass over an ordered support of alternatives."""

    support: tuple
    mass: np.ndarray

    def __post_init__(self):
        m = np.array(self.mass, dtype=float)
        sup = tuple(int(i) for i in self.support)
        if m.ndim != 1 or len(m) != len(sup):
            raise ValueError("mass length must match support length")
        if len(sup) != len(set(sup)):
            raise ValueError("support must not repeat alternatives")
        if m.min() < 0:
            raise ValueError("mass must be nonnegative")
        if abs(m.sum() - 1.0) > MASS_TOL:
            raise ValueError("mass sums to %r, not 1" % float(m.sum()))
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "support", sup)

    def prob(self, item: int) -> float:
        """Mass assigned to one alternative (zero if outside the support)."""
        item = int(item)
        for i, s in enumerate(self.support):
            if s == item:
                return float(self.mass[i])
        return 0.0

    def as_dict(self) -> dict:
        return {s: float(p) for s, p in zip(self.support, self.mass)}


def _generators(rates, idx):
    """Generators of the chain restricted to each row of an (m, s) array
    of sets: the rates among the row's members, with each diagonal
    entry set to minus its row sum."""
    m, size = idx.shape
    sub = rates[idx[:, :, None], idx[:, None, :]]
    diag = sub.reshape(m, size * size)[:, ::size + 1]  # a view: sub is C-ordered
    diag[...] = 0.0
    diag[...] = -sub.sum(axis=2)
    return sub


def restrict(q: RateMatrix, subset: Iterable[int]) -> RestrictedGenerator:
    """Generator of the chain watched only on the given alternatives.

    Keeps the rates among subset members and sets each diagonal entry to
    minus its row sum.
    """
    members = _check_subset(subset, q.n)
    block = _generators(q.rates, np.array([members], dtype=int))[0]
    return RestrictedGenerator(subset=members, matrix=block)


def closed_classes(g: RestrictedGenerator) -> list:
    """Closed communicating classes of a restricted chain.

    Uses the directed graph with an edge i -> j whenever the rate
    exceeds TOL_EDGE. A strongly connected component is closed when no
    member has an edge leaving the component. Classes come back as
    sorted tuples of original alternative ids, ordered by smallest
    member.
    """
    s = g.size
    if s == 1:
        return [(g.subset[0],)]
    adj = g.matrix > TOL_EDGE
    np.fill_diagonal(adj, False)
    n_comp, labels = csgraph.connected_components(
        adj.astype(np.int8), directed=True, connection="strong"
    )
    closed = []
    for c in range(n_comp):
        inside = labels == c
        leaves = adj[inside][:, ~inside]
        if leaves.size == 0 or not leaves.any():
            members = [g.subset[k] for k in np.flatnonzero(inside)]
            closed.append(tuple(sorted(members)))
    closed.sort(key=lambda cls: cls[0])
    return closed


def _irreducible(sub):
    """Rows of an (m, s, s) stack of generators whose chain is
    irreducible under the TOL_EDGE rule, from ceil(log2(s - 1)) boolean
    squarings of one-step reachability."""
    reach = (sub > TOL_EDGE) | np.eye(sub.shape[1], dtype=bool)
    for _ in range(max(sub.shape[1] - 2, 0).bit_length()):
        reach = np.matmul(reach, reach)
    return reach.all(axis=(1, 2))


def _gth(sub):
    """Stationary masses of each irreducible chain in an (m, s, s) stack
    of generators, by GTH state reduction (Grassmann, Taksar & Heyman,
    Oper. Res. 33(5), 1985) on the jump chain: censor out states s-1 ...
    1, then rebuild the masses upwards from state 0. No step subtracts,
    so each mass is nonnegative and accurate relative to its own size
    (O'Cinneide, Numer. Math. 65, 1993). Masses that double precision
    cannot hold come back not finite; rows of other chains come back
    meaningless, without a warning."""
    size = sub.shape[1]
    out = np.maximum(-np.diagonal(sub, axis1=1, axis2=2), np.finfo(float).tiny)
    p = sub / out[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # state k's jumps to the states below it are shared out among
        # them; its column, divided by their sum, is kept for the rebuild
        for k in range(size - 1, 0, -1):
            col = p[:, :k, k]
            col /= p[:, k, :k].sum(axis=1, keepdims=True)
            block = p[:, :k, :k]
            block += col[:, :, None] * p[:, k, None, :k]
        x = np.ones(sub.shape[:2])
        for k in range(1, size):
            x[:, k] = (x[:, :k] * p[:, :k, k]).sum(axis=1)
        x /= out
        return x / x.sum(axis=1, keepdims=True)


def stationary(g: RestrictedGenerator) -> Distribution:
    """Unique stationary distribution of a restricted chain.

    Raises MultipleClosedClasses when the restriction has more than one
    closed communicating class. Alternatives outside the closed class
    are transient and get exactly zero mass. The closed class is solved
    by GTH state reduction, which needs no certificate; SingularSystem
    is raised only when its masses are not finite.
    """
    classes = closed_classes(g)
    if len(classes) != 1:
        raise MultipleClosedClasses(classes)
    pos = {item: k for k, item in enumerate(g.subset)}
    cls_idx = np.array([pos[item] for item in classes[0]], dtype=int)

    # Rebuild the diagonal: rates leaving the closed class are zero by
    # definition, but tiny sub-threshold leaks must not skew row sums.
    pi = _gth(_generators(g.matrix, cls_idx[None]))[0]
    if not np.isfinite(pi).all():
        raise SingularSystem(np.inf, "stationary masses are not finite in double precision")
    mass = np.zeros(g.size)
    mass[cls_idx] = pi
    return Distribution(support=g.subset, mass=mass)


def _stationary_rows(rates, idx):
    """Stationary masses of the chain restricted to each row of an (m, s)
    array of equal-size sets: a row is kept when its chain is irreducible
    and its _gth masses are finite, others come from stationary() and its
    errors. Returns the masses, the kept-row mask and A (G^T with its
    last row set to ones) for the adjoint."""
    sub = _generators(rates, idx)
    pi = _gth(sub)
    ok = _irreducible(sub) & np.isfinite(pi).all(axis=1)
    if not ok.all():
        q = RateMatrix(n=len(rates), rates=rates)
        for row in np.flatnonzero(~ok):
            pi[row] = stationary(restrict(q, idx[row])).mass
    a = np.transpose(sub, (0, 2, 1)).copy()
    a[:, -1, :] = 1.0
    return pi, ok, a


def _size_groups(sets):
    """Positions and (m, s) index array of each set size present."""
    groups = {}
    for k, s in enumerate(sets):
        groups.setdefault(len(s), []).append(k)
    return [(ks, np.array([sets[k] for k in ks])) for ks in groups.values()]


def stationary_many(q: RateMatrix, sets: Sequence) -> list:
    """Stationary masses of the chain restricted to each set, in input
    order, each aligned with its set's members. The irreducible sets of
    one size share a batched reduction; any other set takes stationary()."""
    members = [_check_subset(s, q.n) for s in sets]
    out = [None] * len(members)
    for ks, idx in _size_groups(members):
        for k, row in zip(ks, _stationary_rows(q.rates, idx)[0]):
            out[k] = row
    return out
