"""Choice-axiom diagnostics and structural operations on rate matrices.

Covers three families of checks:

* Contractibility: when all rates between two blocks of a partition are
  equal, the chain projects onto a block-level chain whose stationary
  distribution gives the block masses of the original. Two models that
  agree on those block-level rates give their blocks identical total
  mass, whatever happens inside the blocks.
* Uniform expansion: replacing every alternative by k identical copies
  leaves the total mass of each copy-group equal to the original
  alternative's probability.
* Regularity and transitivity: whether adding alternatives to a menu
  can raise an existing alternative's probability, and how many cyclic
  triples the model's pairwise predictions contain. Cycle counts are
  compared against the maximum possible for a tournament of that size.
"""

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import ctmc
from .base import ChoiceModel, probabilities_rows
from .ctmc import Distribution, RateMatrix
from .data import _distinct_rows
from .errors import (
    BadNesting,
    IndexOutOfRange,
    InvalidPairwise,
    LambdaMismatch,
    NotContractible,
)
from .luce import MnlModel
from .model import PcmcModel
from .param import BladeChest, q_from_btl


def _tolerance(tol, signed=False) -> float:
    """tol as a float, once checked to be finite: a NaN passes every
    regularity and contractibility check and fails every expansion check,
    and an infinity decides each check one way. A negative tol decides a
    contraction or expansion check one way too, so it is refused unless
    signed: regularity then also lists falls smaller than -tol."""
    tol = ctmc._real(tol, "tolerance")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite, got %r" % tol)
    if tol < 0 and not signed:
        raise ValueError("tolerance must be >= 0, got %r" % tol)
    return tol


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering all n alternatives."""

    n: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", ctmc._size(self.n, "universe size"))
        blocks = tuple(tuple(sorted(map(ctmc._index, b))) for b in self.blocks)
        flat = [i for b in blocks for i in b]
        if any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be nonempty")
        if sorted(flat) != list(range(self.n)):
            raise ValueError("blocks must partition 0..%d exactly" % (self.n - 1))
        object.__setattr__(self, "blocks", blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class ContractionSummary:
    """Block-level view of a contractible matrix: the between-block
    rates, the block sizes, and the stationary distribution of the
    contracted chain (one state per block)."""

    lam: np.ndarray
    block_sizes: tuple
    contracted_pi: Distribution

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        k = len(self.block_sizes)
        if lam.shape != (k, k):
            raise ValueError("lam must be k x k")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "block_sizes",
                           tuple(ctmc._size(s, "block size") for s in self.block_sizes))


def check_contractible(q: RateMatrix, partition: Partition, tol: float = 1e-9):
    """Block-level summary if the matrix is contractible, else None.

    Contractible means: for every ordered pair of distinct blocks, all
    rates from members of the first to members of the second are equal
    (within tol). The contracted chain has one state per block and rate
    lam_ij times the target block's size from block i to block j.
    """
    tol = _tolerance(tol)
    if partition.n != q.n:
        raise ValueError("partition is over %d alternatives, matrix over %d"
                         % (partition.n, q.n))
    k = partition.k
    lam = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            rows = np.array(partition.blocks[a], dtype=int)
            cols = np.array(partition.blocks[b], dtype=int)
            vals = q.rates[np.ix_(rows, cols)]
            if float(vals.max() - vals.min()) > tol:
                return None
            lam[a, b] = float(vals.mean())
    sizes = np.array([len(b) for b in partition.blocks], dtype=float)
    contracted = RateMatrix(n=k, rates=lam * sizes[None, :])
    pi = ctmc.stationary(ctmc.restrict(contracted, range(k)))
    return ContractionSummary(
        lam=lam, block_sizes=tuple(len(b) for b in partition.blocks),
        contracted_pi=pi,
    )


def contraction_invariance(q1: RateMatrix, q2: RateMatrix,
                           partition: Partition, tol: float = 1e-9) -> bool:
    """Whether two contractible matrices with matching block-level rates
    put the same total mass on every block.

    Raises NotContractible when either matrix fails the block-rate
    equality test and LambdaMismatch when their block-level rates
    disagree. The comparison uses each chain's stationary distribution
    over the full universe.
    """
    tol = _tolerance(tol)
    s1 = check_contractible(q1, partition, tol)
    if s1 is None:
        raise NotContractible("first matrix is not contractible for this partition")
    s2 = check_contractible(q2, partition, tol)
    if s2 is None:
        raise NotContractible("second matrix is not contractible for this partition")
    gap = float(np.abs(s1.lam - s2.lam).max())
    if gap > tol:
        raise LambdaMismatch("block-level rates differ by %.3e" % gap)
    gap = np.abs(_block_masses(q1, partition) - _block_masses(q2, partition))
    return bool(gap.max() <= tol)


def _block_masses(q: RateMatrix, partition: Partition) -> np.ndarray:
    """Total stationary mass of each block, over the full universe."""
    pi = ctmc.stationary(ctmc.restrict(q, range(q.n)))
    return np.array([pi.mass[np.array(b, dtype=int)].sum()
                     for b in partition.blocks])


def expand_copies(q: RateMatrix, k: int):
    """Replace each alternative with k interchangeable copies.

    Copies of different alternatives keep the original rates; copies of
    the same alternative exchange mass at the constant one half, so the
    expanded matrix stays canonical whenever the original is. The copies
    of an alternative are lumpable, so no choice probability depends on
    that rate. Returns the expanded matrix and the partition grouping the
    copies, copies of alternative m occupying indices m*k .. m*k + k - 1.
    """
    k = ctmc._size(k, "copy count")
    n = q.n
    big = np.repeat(np.repeat(q.rates, k, axis=0), k, axis=1)
    for m in range(n):
        block = slice(m * k, (m + 1) * k)
        big[block, block] = 0.5
    partition = Partition(
        n=n * k,
        blocks=tuple(tuple(range(m * k, (m + 1) * k)) for m in range(n)),
    )
    return RateMatrix(n=n * k, rates=big), partition


def _expansion_deviation(q: RateMatrix, k: int) -> float:
    """Largest gap between each alternative's mass and the total mass of
    its k copies, over the full universe."""
    pi = ctmc.stationary(ctmc.restrict(q, range(q.n)))
    grouped = _block_masses(*expand_copies(q, k))
    return float(np.abs(grouped - pi.mass).max())


# Largest mass gap at which a k-copy expansion still counts as uniform.
_EXPANSION_TOL = 1e-8


def verify_uniform_expansion(q: RateMatrix, k: int, tol: float = _EXPANSION_TOL) -> bool:
    """Whether expanding into k copies preserves each alternative's total
    mass, comparing stationary distributions over the full universe."""
    tol = _tolerance(tol)
    return _expansion_deviation(q, k) <= tol


@dataclass(frozen=True, slots=True)
class RegularityViolation:
    """A witness that enlarging a menu raised an alternative's
    probability: p(item | subset) < p(item | superset) minus tolerance.
    Slotted, so each of the thousands a sweep builds is one object."""

    item: int
    subset: tuple
    superset: tuple
    p_subset: float
    p_superset: float


# The failing entries of one (|A|, |B|) group: the numbers of its failing
# pairs with their sorted subsets and supersets, then per failing
# (pair, item) the pair's row among them, the item and its probabilities.
_Failures = namedtuple("_Failures", "pairs subset superset row item p_subset p_superset")


class ViolationColumns(Sequence):
    """Regularity violation records kept as columns, one block per
    (|A|, |B|) group, in nesting order. A read-only sequence: its length,
    indexing and iteration give each record as the dict {"item",
    "subset", "superset", "p_subset", "p_superset"}, sets as sorted
    tuples. serialize.dumps writes it from the columns."""

    __slots__ = ("blocks", "_starts")

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self._starts = np.cumsum([0] + [len(f.item) for f in self.blocks])

    def __len__(self):
        return int(self._starts[-1])

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        g = int(np.searchsorted(self._starts, i, side="right")) - 1
        f, j = self.blocks[g], i - int(self._starts[g])
        r = f.row[j]
        return {"item": int(f.item[j]), "subset": tuple(f.subset[r].tolist()),
                "superset": tuple(f.superset[r].tolist()),
                "p_subset": float(f.p_subset[j]), "p_superset": float(f.p_superset[j])}


def _sweep(model, groups, tol):
    """Regularity violations among blocks of nestings, as columns.

    groups yields (pairs, a, b) per (|A|, |B|) group, in ascending
    (|A|, |B|) order: the pair numbers, and the subsets and supersets as
    sorted (m, |A|) and (m, |B|) int arrays. Each group is checked as it
    is read (a repeated id, or a subset that is not strict, raises
    BadNesting). Each distinct menu is solved once, in one
    probabilities_rows call per menu size, as soon as no later group can
    hold that size, and each group is compared as soon as both its sizes
    are solved, keeping only its failing rows. Returns the number of
    pairs read and one _Failures block per group.
    """
    menus, blocks, count = {}, [], 0

    def solve(sizes):
        for s in sorted(sizes):
            slots = menus.pop(s)  # (group, 1) for its subsets, (group, 2) for its supersets
            rows = [g[side] for g, side in slots]
            menu, back = _distinct_rows(np.concatenate(rows))
            mass = probabilities_rows(model, menu)[back]
            for (g, side), part in zip(slots, np.split(mass, np.cumsum(list(map(len, rows[:-1]))))):
                g[side + 3] = part
                if g[4] is not None and g[5] is not None:
                    pairs, a, b, pos, lo, hi = g
                    hi = np.take_along_axis(hi, pos, axis=1)
                    r, c = np.nonzero(lo < hi - tol)
                    failing, row = np.unique(r, return_inverse=True)
                    blocks.append(_Failures(pairs[failing], a[failing], b[failing], row,
                                            a[r, c], lo[r, c], hi[r, c]))

    for pairs, a, b in groups:
        k, l = a.shape[1], b.shape[1]
        # Column in B of each item of A, and whether the item is there.
        pos = (b[:, None, :] < a[:, :, None]).sum(axis=2)
        found = (b[:, None, :] == a[:, :, None]).any(axis=2)
        repeat = (a[:, 1:] == a[:, :-1]).any(1) | (b[:, 1:] == b[:, :-1]).any(1)
        for bad, fault in ((repeat, "%s or %s repeats an alternative"),
                           (~found.all(1) | (k >= l), "%s is not a strict subset of %s")):
            if bad.any():
                r = int(bad.argmax())
                raise BadNesting(fault % (tuple(a[r].tolist()), tuple(b[r].tolist())))
        solve([s for s in menus if s < k])
        group = [pairs, a, b, pos, None, None]
        menus.setdefault(k, []).append((group, 1))
        menus.setdefault(l, []).append((group, 2))
        count += len(pairs)
    solve(list(menus))
    return count, blocks


def regularity_violations(model: ChoiceModel, nestings: Sequence,
                          tol: float = 1e-9) -> list:
    """Regularity violations among the given (subset, superset) pairs.

    Each pair must nest strictly, A a proper subset of B, and name its
    alternatives by distinct integer ids (a float or a repeated id raises
    BadNesting). Returns one violation record per (pair, item) where the
    item's probability rose when the menu grew by more than tol, in
    input pair order, then in the order of the sorted subset.

    The ids are read into one int64 array and the pairs grouped by
    (|A|, |B|) for the sweep core (_sweep), which checks, solves and
    compares each group as arrays; a record is built only for a
    (pair, item) that fails.
    """
    tol = _tolerance(tol, signed=True)
    menus = [s for a, b in nestings for s in (a, b)]
    size = np.fromiter(map(len, menus), np.int64, len(menus))
    try:
        ids = np.fromiter(map(operator.index, itertools.chain.from_iterable(menus)),
                          np.int64, int(size.sum()))
    except TypeError as exc:
        raise BadNesting("a nesting holds a non-integer id: %s" % exc) from None
    except OverflowError:
        raise IndexOutOfRange("an alternative id is outside [0, %d)" % model.n) from None
    start = np.cumsum(size) - size

    def groups():
        for k, l in sorted(set(zip(size[0::2].tolist(), size[1::2].tolist()))):
            p = np.flatnonzero((size[0::2] == k) & (size[1::2] == l))
            yield (p, np.sort(ids[start[2 * p, None] + np.arange(k)], axis=1),
                   np.sort(ids[start[2 * p + 1, None] + np.arange(l)], axis=1))

    keys, out = [np.zeros(0, np.int64)], []
    for f in _sweep(model, groups(), tol)[1]:
        keys.append(f.pairs[f.row])
        # One subset and one superset tuple per failing pair, shared by its records.
        subset, superset = (list(map(tuple, x.tolist())) for x in (f.subset, f.superset))
        out += map(RegularityViolation, f.item.tolist(), map(subset.__getitem__, f.row.tolist()),
                   map(superset.__getitem__, f.row.tolist()), f.p_subset.tolist(),
                   f.p_superset.tolist())
    # Each pair's records come from one group, already in item order.
    return [out[i] for i in np.argsort(np.concatenate(keys), kind="stable").tolist()]


@dataclass(frozen=True)
class Tournament:
    """Complete orientation of the pairwise comparison graph.

    beats holds ordered pairs (winner, loser), exactly one per unordered
    pair; ties records the pairs whose orientation was forced by the
    tie-breaking rule.
    """

    n: int
    beats: frozenset
    ties: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n", ctmc._size(self.n, "universe size", 0))
        beats = frozenset((ctmc._index(a), ctmc._index(b)) for a, b in self.beats)
        ties = frozenset(tuple(sorted((ctmc._index(a), ctmc._index(b))))
                         for a, b in self.ties)
        want = {tuple(sorted(e)) for e in beats}
        expect = {(i, j) for i in range(self.n) for j in range(i + 1, self.n)}
        if want != expect or len(beats) != len(expect):
            raise ValueError("need exactly one oriented edge per pair")
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "ties", ties)

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for w, _ in self.beats:
            deg[w] += 1
        return deg


def tournament_from_pairwise(p) -> Tournament:
    """Orient each pair toward the likelier winner.

    Accepts a PairwiseMatrix or a raw matrix of win probabilities. An
    exact tie is flagged and its edge oriented toward the lower index
    (head at the lower-numbered alternative).
    """
    a = p.p if hasattr(p, "p") else np.array(p, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise InvalidPairwise("need a square matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidPairwise("entries must be finite")
    beats, ties = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] > a[j, i]:
                beats.add((i, j))
            elif a[i, j] < a[j, i]:
                beats.add((j, i))
            else:
                beats.add((j, i))
                ties.add((i, j))
    return Tournament(n=n, beats=frozenset(beats), ties=frozenset(ties))


def tournament_from_model(model: ChoiceModel) -> Tournament:
    """Tournament induced by a model's pairwise choice probabilities."""
    n = model.n
    i, j = np.triu_indices(n, k=1)
    a = np.zeros((n, n))
    a[i, j], a[j, i] = probabilities_rows(model, np.column_stack([i, j])).T
    return tournament_from_pairwise(a)


def cyclic_triplets(t: Tournament) -> int:
    """Number of 3-cycles, by out-degrees: C(n,3) - sum_i C(d_i, 2)."""
    deg = t.out_degrees()
    total = math.comb(t.n, 3)
    return total - int(sum(math.comb(int(d), 2) for d in deg))


def harary_moser_bound(n: int) -> int:
    """Maximum number of 3-cycles any tournament on n players can hold:
    (n^3 - n)/24 for odd n, (n^3 - 4n)/24 for even n."""
    n = ctmc._size(n, "player count", 0)
    if n % 2 == 1:
        return (n ** 3 - n) // 24
    return (n ** 3 - 4 * n) // 24


def _enumerate_cycles(t: Tournament) -> list:
    beats = t.beats
    cycles = []
    for i, j, k in itertools.combinations(range(t.n), 3):
        forward = ((i, j) in beats) + ((j, k) in beats) + ((k, i) in beats)
        if forward in (0, 3):
            cycles.append((i, j, k))
    return cycles


def _induced_rates(model):
    """Rate matrix equivalent to the model, when one exists."""
    if isinstance(model, PcmcModel):
        return model.q
    if isinstance(model, MnlModel):
        return q_from_btl(model.gamma)
    if isinstance(model, BladeChest):
        return model.to_pcmc().q
    return None


def _all_nestings(n, max_universe=12):
    """(B minus one item, B) for every set B of size >= 3, as one
    (pairs, subsets, supersets) block per size of B: pair numbers and
    sorted int arrays, in the order of sizes, then of B, then of the
    item dropped.

    Full enumeration is exponential, so universes above max_universe
    only check menus against the full universe.
    """
    if n > max_universe:
        supersets = [np.arange(n)[None, :]]
    else:
        supersets = (np.array(list(itertools.combinations(range(n), size)), np.int64)
                     for size in range(3, n + 1))
    start = 0
    for sets in supersets:
        m, size = sets.shape
        b = np.repeat(sets, size, axis=0)
        a = b[np.tile(~np.eye(size, dtype=bool), (m, 1))].reshape(-1, size - 1)
        yield np.arange(start, start + len(b)), a, b
        start += len(b)


def run_audit(model: ChoiceModel, expand_k: int = 2, tol: float = 1e-9) -> dict:
    """Battery of axiom checks on a fitted model, as a dict.

    Checks regularity over all one-item-removed nestings for at most 12
    alternatives, and above that only the n nestings that drop one item
    from the full universe (see _all_nestings); its violation records
    are a read-only ViolationColumns sequence of dicts. Also checks uniform
    expansion of the induced rate matrix (skipped when the model has
    none or when the expansion's row sums overflow), and counts cyclic
    triples in the pairwise predictions against the tournament maximum.
    """
    expand_k = ctmc._size(expand_k, "copy count")
    tol = _tolerance(tol, signed=True)
    checks = []

    # One-item-removed nestings suffice: if no single addition ever
    # raises an item's probability, no nesting does.
    count, blocks = _sweep(model, _all_nestings(model.n), tol)
    violations = ViolationColumns(blocks)
    gaps = np.concatenate([np.zeros(0)] + [f.p_superset - f.p_subset for f in blocks])
    checks.append({
        "name": "regularity",
        "status": "fail" if violations else "pass",
        "pairs_checked": count,
        "margin": float(gaps.max()) if len(gaps) else 0.0,
        "violations": violations,
    })

    q = _induced_rates(model)
    with np.errstate(over="ignore"):
        if q is None:
            skip = "model has no single rate-matrix form"
        elif not np.isfinite(expand_k * q.rates.sum(axis=1)).all():
            skip = "rate row sums overflow in the %d-copy expansion" % expand_k
        else:
            skip = None
    if skip:
        checks.append({"name": "uniform_expansion", "status": "skipped",
                       "reason": skip})
    else:
        deviation = _expansion_deviation(q, expand_k)
        checks.append({"name": "uniform_expansion",
                       "status": "pass" if deviation <= _EXPANSION_TOL else "fail",
                       "copies": expand_k,
                       "margin": deviation})

    t = tournament_from_model(model)
    cycles = _enumerate_cycles(t)
    checks.append({
        "name": "cyclic_triplets",
        "status": "pass",
        "count": len(cycles),
        "max_possible": harary_moser_bound(t.n),
        "ties": sorted(list(e) for e in t.ties),
        "witnesses": [list(c) for c in cycles],
    })

    return {"n": model.n, "checks": checks}
