"""Continuous-time Markov chain machinery.

A chain over n alternatives is described by its off-diagonal transition
rates. Restricting the chain to a subset keeps only the rates among the
subset's members and rebuilds the diagonal so rows sum to zero. The
stationary distribution of a restriction is found by GTH state
reduction, which needs no certificate; states outside the single closed
class receive zero mass. One batched kernel serves every caller: it
finds each chain's closed class from the reachability matrix of its
stack, reorders a chain that is not irreducible so that its class comes
first, and reduces the whole stack at once. The chain models call it
on each batch of equal-size sets, and stationary on a stack of one.
"""

import numbers
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EmptySubset,
    IndexOutOfRange,
    InvalidK,
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

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, "universe size"))
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
        with np.errstate(over="ignore"):  # an infinite pair sum is >= 1
            sums = self.rates + self.rates.T
        off = ~np.eye(self.n, dtype=bool)
        return float(max(0.0, 1.0 - sums[off].min()))


def _index(i) -> int:
    """An alternative id as an int; a float or other non-integer raises."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError("alternative %r is not an integer id" % (i,)) from None


def _seed(seed, what="seed"):
    """A seed as np.random.default_rng takes it: a SeedSequence,
    BitGenerator or Generator unchanged, else an int read by _size with
    floor 0; a float, a string or a negative integer raises InvalidK."""
    if isinstance(seed, (np.random.SeedSequence, np.random.BitGenerator,
                         np.random.Generator)):
        return seed
    return _size(seed, what, 0)


def _size(k, what, least=1) -> int:
    """A size, such as a universe size or a copy count, as an int once
    checked to be an integer >= least; a float, a string or a smaller
    integer raises InvalidK. Every size and integer seed is read here."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidK("%s must be an integer, got %r" % (what, k)) from None
    if k < least:
        raise InvalidK("%s must be >= %d, got %d" % (what, least, k))
    return k


def _real(x, what, error=ValueError) -> float:
    """x as a float; a string, bytes, None or other non-number raises error."""
    if not isinstance(x, numbers.Real):
        raise error("%s must be a real number, got %r" % (what, x))
    return float(x)


def _check_rows(idx, n) -> None:
    """Raise unless every row of an (m, s) array of integer ids is a
    nonempty set of distinct ids in [0, n), as one check of the batch."""
    if len(idx) and not idx.shape[1]:
        raise EmptySubset("choice set must be nonempty")
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise IndexOutOfRange("alternative %d outside [0, %d)" % (idx[outside][0], n))
    ordered = np.sort(idx, axis=1)
    twice = ordered[:, 1:] == ordered[:, :-1]
    if twice.any():
        raise ValueError("duplicate alternative %d in subset" % ordered[:, 1:][twice][0])


def _check_subset(subset, n) -> tuple:
    """A set's ids as Python ints, checked as _check_rows checks a row."""
    members = tuple(map(_index, subset))
    _check_rows(np.array([members], dtype=object), n)
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
        object.__setattr__(self, "subset", tuple(map(_index, self.subset)))

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
        sup = tuple(map(_index, self.support))
        if m.ndim != 1 or len(m) != len(sup):
            raise ValueError("mass length must match support length")
        if len(sup) != len(set(sup)):
            raise ValueError("support must not repeat alternatives")
        if not m.min() >= 0:  # NaN fails too
            raise ValueError("mass must be finite and nonnegative")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
            total = float(m.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError("mass sums to %r, not 1" % total)
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "support", sup)

    def prob(self, item: int) -> float:
        """Mass assigned to one alternative (zero if outside the support)."""
        return self.as_dict().get(_index(item), 0.0)

    def as_dict(self) -> dict:
        return {s: float(p) for s, p in zip(self.support, self.mass)}


def _generators(sub):
    """Generators from a C-ordered (m, s, s) stack of rate blocks: each
    diagonal entry set, in place, to minus its row's off-diagonal sum."""
    m, size = sub.shape[:2]
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
    block = _generators(q.rates[np.ix_(members, members)][None])[0]
    return RestrictedGenerator(subset=members, matrix=block)


def _reach(sub):
    """reach[r, i, j]: whether chain r of an (m, s, s) stack of
    generators gets from i to j in zero or more jumps along rates above
    TOL_EDGE, by ceil(log2(s - 1)) boolean squarings."""
    reach = (sub > TOL_EDGE) | np.eye(sub.shape[1], dtype=bool)
    for _ in range(max(sub.shape[1] - 2, 0).bit_length()):
        reach = np.matmul(reach, reach)
    return reach


def _closed(reach):
    """States in a closed class: everything they reach reaches them back."""
    return (reach <= np.swapaxes(reach, -1, -2)).all(axis=-1)


def _classes(reach, ids):
    """Closed classes of one chain from its (s, s) reachability, named by
    ids: the class of a closed state is what it reaches."""
    return sorted({tuple(np.sort(ids[row]).tolist()) for row in reach[_closed(reach)]})


def closed_classes(g: RestrictedGenerator) -> list:
    """Closed communicating classes of a restricted chain, on the graph
    with an edge wherever the rate exceeds TOL_EDGE, as sorted tuples of
    original alternative ids ordered by smallest member."""
    return _classes(_reach(g.matrix[None])[0], np.array(g.subset))


def _gth(sub):
    """Stationary masses of each irreducible chain in an (m, s, s) stack
    of generators, by GTH state reduction (Grassmann, Taksar & Heyman,
    Oper. Res. 33(5), 1985) on the jump chain: censor out states s-1 ...
    1, then rebuild the masses upwards from state 0. No step subtracts,
    so each mass is nonnegative and accurate relative to its own size
    (O'Cinneide, Numer. Math. 65, 1993). A closed class put first, with
    no rate leaving it, leaves every later state exactly zero. Masses
    that double precision cannot hold come back not finite; rows of
    other chains come back meaningless, without a warning."""
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
    """Unique stationary distribution of a restricted chain: the kernel
    _stationary_rows on a stack of one. Transient alternatives get
    exactly zero. Raises MultipleClosedClasses, naming the subset's ids,
    or SingularSystem when the masses are not finite."""
    try:
        pi = _stationary_rows(g.matrix, np.arange(g.size)[None])[0][0]
    except MultipleClosedClasses:
        raise MultipleClosedClasses(closed_classes(g)) from None
    return Distribution(support=g.subset, mass=pi)


def _stationary_rows(rates, idx):
    """Stationary masses and generators G of the chain restricted to each
    row of an (m, s) array of equal-size sets, by one _gth of the stack.
    A reducible row enters it reordered, its closed class first, with
    the rates leaving the class (all at or below TOL_EDGE) set to zero,
    and gets its masses back in its own order. The first row in input
    order with more than one closed class raises MultipleClosedClasses,
    naming idx's ids, or with masses that are not finite SingularSystem.
    Every row returned has one closed class, so its adjoint A (G^T with
    the last row set to ones) is nonsingular in exact arithmetic."""
    sub = _generators(rates[idx[:, :, None], idx[:, None, :]])
    reach = _reach(sub)
    irreducible = reach.all(axis=(1, 2))
    gen = sub
    if not irreducible.all():
        red = np.flatnonzero(~irreducible)
        closed = _closed(reach[red])
        cls = reach[red, closed.argmax(axis=1)]  # the first closed state's class
        order = np.argsort(~cls, axis=1, kind="stable")
        ids = np.take_along_axis(idx[red], order, axis=1)
        inside = np.take_along_axis(cls, order, axis=1)
        part = rates[ids[:, :, None], ids[:, None, :]]
        part[inside[:, :, None] & ~inside[:, None, :]] = 0.0
        gen = sub.copy()
        gen[red] = _generators(part)
    pi = _gth(gen)
    if gen is not sub:  # masses of the reordered rows back in their own order
        pi[red[:, None], order] = pi[red]
        pi[red[(cls != closed).any(axis=1)]] = np.nan  # more than one class
    ok = np.isfinite(pi).all(axis=1)
    if not ok.all():
        row = int(ok.argmin())
        classes = _classes(reach[row], idx[row])
        if len(classes) > 1:
            raise MultipleClosedClasses(classes)
        raise SingularSystem("stationary masses are not finite in double precision")
    return pi, sub
