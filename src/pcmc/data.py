"""Choice datasets: containers, counting, smoothing, splitting, sampling,
synthetic generators, and file formats.

An observation is one recorded decision: the choice set offered and the
alternative picked from it. Datasets are immutable; transformations
return new objects.

The native text format ("chosen-set-v1") has one observation per line:
the chosen alternative, a comma, then the members of the choice set
separated by spaces. Lines starting with '#' are comments; a
'# n=<int>' comment pins the universe size. A sidecar file
'<path>.labels.json' holding {"labels": [...]} supplies display names.

The "sf-matrix" format is numeric and whitespace-separated: column 0 is
the index of the chosen alternative and the remaining n columns are 0/1
membership indicators for the choice set.
"""

import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import ctmc
from .base import ChoiceModel, probabilities_many
from .errors import (
    DegenerateSplit,
    EmptyDataset,
    EmptySubset,
    IndexOutOfRange,
    InvalidChoice,
    NegativeAlpha,
    ParseError,
)


def _canonical_set(members, n, number) -> tuple:
    """The members sorted, once checked to be >= 2 distinct ids in [0, n)."""
    out = tuple(sorted(map(int, members)))
    if len(out) < 2 or len(set(out)) < len(out):
        raise ParseError(number, "set %s needs at least 2 distinct members" % (out,))
    if out[0] < 0 or out[-1] >= n:
        raise IndexOutOfRange("choice set %s outside [0, %d)" % (out, n))
    return out


@dataclass(frozen=True)
class ChoiceDataset:
    """A multiset of (chosen alternative, choice set) observations.

    Sets are stored sorted. The same set may occur many times with
    different choices; order of observations is preserved.

    Construction validates once per distinct raw set; its ParseError
    and InvalidChoice carry the observation's 1-based position.
    """

    n: int
    observations: tuple
    labels: tuple = None

    def __post_init__(self):
        sets, obs = {}, []
        for number, (chosen, members) in enumerate(self.observations, start=1):
            members = tuple(members)
            s = sets.get(members)
            if s is None:
                s = sets[members] = _canonical_set(members, self.n, number)
            c = int(chosen)
            if c not in s:
                raise InvalidChoice(number, "chosen %d not in set %s" % (c, s))
            obs.append((c, s))
        if self.n < 2:  # after the sets: a file of malformed sets reports a set
            raise ValueError("universe needs at least 2 alternatives")
        object.__setattr__(self, "observations", tuple(obs))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.n:
                raise ValueError("need %d labels, got %d" % (self.n, len(labels)))
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def distinct_sets(self) -> tuple:
        return tuple(sorted(s for idx, _ in _set_terms(self) for s in map(tuple, idx.tolist())))

    @cached_property
    def _layout(self):
        return _tally(self.observations)


@dataclass(frozen=True)
class CountTables:
    """Aggregated counts from a dataset.

    choice_counts maps each observed set to {alternative: count};
    set_counts is the total per set; cooccurrence[i, j] counts
    observations whose set offered both i and j (zero diagonal);
    set_size_histogram maps |S| to number of observations.
    """

    n: int
    choice_counts: dict
    set_counts: dict
    cooccurrence: np.ndarray = field(repr=False)
    set_size_histogram: dict

    def __post_init__(self):
        a = np.array(self.cooccurrence, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError("cooccurrence must be n x n")
        if not np.allclose(a, a.T) or np.abs(np.diag(a)).max(initial=0.0) > 0:
            raise ValueError("cooccurrence must be symmetric with zero diagonal")
        for s, per_item in self.choice_counts.items():
            total = sum(per_item.values())
            if abs(total - self.set_counts[s]) > 1e-9:
                raise ValueError("choice counts for %s sum to %r, set count is %r"
                                 % (s, total, self.set_counts[s]))
        a.flags.writeable = False
        object.__setattr__(self, "cooccurrence", a)

    @property
    def total(self) -> float:
        return float(sum(self.set_counts.values()))


def counts(dataset: ChoiceDataset) -> CountTables:
    """Tally choices per set, set frequencies, co-occurrence, and sizes."""
    layout = _set_terms(dataset)
    choice_counts, set_counts, hist = {}, {}, {}
    for idx, w in layout:
        hist[idx.shape[1]] = int(w.sum())
        for s, per_item in zip(map(tuple, idx.tolist()), w.tolist()):
            choice_counts[s] = dict(zip(s, per_item))
            set_counts[s] = sum(per_item)
    cooc = _pair_scatter(dataset.n, [(idx, w.sum(axis=1, keepdims=True))
                                     for idx, w in layout])
    return CountTables(
        n=dataset.n,
        choice_counts=choice_counts,
        set_counts=set_counts,
        cooccurrence=cooc,
        set_size_histogram=hist,
    )


def smooth(tables: CountTables, alpha: float) -> CountTables:
    """Add alpha pseudocounts to every member of every observed set.

    Only sets that occur in the data are touched; unobserved sets stay
    absent. Set totals grow by alpha * |S| accordingly.
    """
    alpha = float(alpha)
    if alpha < 0:
        raise NegativeAlpha("smoothing pseudocount must be >= 0, got %r" % alpha)
    choice_counts = {
        s: {i: c + alpha for i, c in per_item.items()}
        for s, per_item in tables.choice_counts.items()
    }
    set_counts = {
        s: tables.set_counts[s] + alpha * len(s) for s in tables.set_counts
    }
    return CountTables(
        n=tables.n,
        choice_counts=choice_counts,
        set_counts=set_counts,
        cooccurrence=tables.cooccurrence,
        set_size_histogram=tables.set_size_histogram,
    )


def split(dataset: ChoiceDataset, train_fraction: float, seed: int):
    """Shuffle observations and cut them into train and test datasets.

    The train side gets floor(train_fraction * N) observations. Raises
    DegenerateSplit when either side would be empty.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot split an empty dataset")
    f = float(train_fraction)
    if not (0.0 < f < 1.0):
        raise DegenerateSplit("train fraction must be in (0, 1), got %r" % f)
    n_obs = len(dataset)
    n_train = math.floor(f * n_obs)
    if n_train == 0 or n_train == n_obs:
        raise DegenerateSplit(
            "fraction %r of %d observations leaves an empty side" % (f, n_obs)
        )
    obs = dataset.observations
    order = np.random.default_rng(seed).permutation(n_obs).tolist()
    return tuple(ChoiceDataset(n=dataset.n, observations=tuple(obs[i] for i in part),
                               labels=dataset.labels)
                 for part in (order[:n_train], order[n_train:]))


def sample(model: ChoiceModel, sets: Sequence, count: int, seed: int) -> ChoiceDataset:
    """Draw observations from a model.

    Each observation picks a choice set uniformly at random from `sets`,
    then draws the chosen alternative from the model's distribution over
    that set. Sampling is vectorized but fully determined by the seed.
    """
    if count < 1:
        raise ValueError("need at least one observation, got %d" % count)
    norm_sets = [_canonical_set(s, model.n, k) for k, s in enumerate(sets, start=1)]
    if len(norm_sets) == 0:
        raise EmptySubset("need at least one choice set to sample from")

    max_size = max(len(s) for s in norm_sets)
    cdfs = np.ones((len(norm_sets), max_size))
    for k, mass in enumerate(probabilities_many(model, norm_sets)):
        cdfs[k, : len(mass)] = np.cumsum(mass)
    rng = np.random.default_rng(seed)
    set_ids = rng.integers(0, len(norm_sets), size=count)
    u = rng.random(count)
    pos = (u[:, None] > cdfs[set_ids]).sum(axis=1)

    picked = [norm_sets[k] for k in set_ids.tolist()]
    return ChoiceDataset(n=model.n, observations=tuple(
        (s[min(p, len(s) - 1)], s) for s, p in zip(picked, pos.tolist())))


def gen_random_q(n: int, seed: int):
    """Random rate matrix with entries uniform on [0, 1).

    Pairs whose two rates sum to less than 1 are scaled up so the sum is
    exactly 1; how many pairs needed that repair is recorded in the
    matrix metadata.
    """
    from .ctmc import RateMatrix

    if n < 2:
        raise ValueError("need at least 2 alternatives, got %d" % n)
    rng = np.random.default_rng(seed)
    q = rng.random((n, n))
    np.fill_diagonal(q, 0.0)
    sums = q + q.T
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    short = upper & (sums < 1.0)
    repaired = int(short.sum())
    with np.errstate(divide="ignore"):
        factor = np.where(sums < 1.0, 1.0 / sums, 1.0)
    np.fill_diagonal(factor, 1.0)
    q = q * factor
    np.fill_diagonal(q, 0.0)
    return RateMatrix(n=n, rates=q, meta={"generator": "uniform", "pairs_rescaled": repaired})


def gen_mnl_simplex(n: int, seed: int):
    """Random Luce model with weights uniform on the simplex."""
    from .luce import MnlModel

    if n < 2:
        raise ValueError("need at least 2 alternatives, got %d" % n)
    rng = np.random.default_rng(seed)
    e = rng.exponential(1.0, size=n)
    return MnlModel(gamma=e / e.sum())


def gen_bladechest_circle(n: int, seed: int):
    """Random two-dimensional embedding model with points on the unit circle.

    Blade and chest vectors are drawn independently at angles uniform on
    [0, 2*pi); the distance variant is used. Such models routinely
    produce intransitive pairwise predictions.
    """
    from .param import BladeChest

    if n < 2:
        raise ValueError("need at least 2 alternatives, got %d" % n)
    rng = np.random.default_rng(seed)
    ang_b = rng.uniform(0.0, 2.0 * math.pi, size=n)
    ang_c = rng.uniform(0.0, 2.0 * math.pi, size=n)
    blades = np.column_stack([np.cos(ang_b), np.sin(ang_b)])
    chests = np.column_stack([np.cos(ang_c), np.sin(ang_c)])
    return BladeChest(n=n, d=2, blades=blades, chests=chests, variant="distance")


def _set_terms(dataset: ChoiceDataset):
    """The dataset's _tally, computed on first use and then shared."""
    return dataset._layout


def _tally(observations):
    """The one tally of a dataset, grouped by set size for batched
    likelihoods: for each size, a read-only (m, s) array holding the
    sorted members of the m distinct observed sets of that size, in
    sorted set order, and one of how often each member was chosen."""
    tally = Counter(observations)
    sets = sorted({s for _, s in tally})
    layout, row_of = [], {}
    for ks, idx in ctmc._size_groups(sets):
        w = np.zeros(idx.shape)
        row_of.update((sets[k], (w, r)) for r, k in enumerate(ks))
        layout.append((idx, w))
    for (chosen, s), c in tally.items():
        w, r = row_of[s]
        w[r, s.index(chosen)] = c
    for idx, w in layout:
        idx.flags.writeable = w.flags.writeable = False
    return tuple(layout)


def _smoothed(layout, alpha: float):
    """The layout with alpha pseudocounts added to every member of every
    set; the same numbers smooth() puts in the count tables."""
    alpha = float(alpha)
    if alpha < 0:
        raise NegativeAlpha("smoothing pseudocount must be >= 0, got %r" % alpha)
    return [(idx, w + alpha) for idx, w in layout]


def _pair_scatter(n, pairs):
    """n x n table, zero on the diagonal, adding v[r, a] at (idx[r, a],
    idx[r, b]) for every row r and positions a, b of each (idx, v) in
    pairs; v broadcasts against idx, so an (m, 1) v is one value per set."""
    out = np.zeros((n, n))
    for idx, v in pairs:
        np.add.at(out, (idx[:, :, None], idx[:, None, :]), np.asarray(v)[..., None])
    np.fill_diagonal(out, 0.0)
    return out


_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


def _load_labels(path: str, n: int):
    sidecar = path + ".labels.json"
    if not os.path.exists(sidecar):
        return None
    with open(sidecar, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    labels = payload.get("labels")
    if not isinstance(labels, list) or len(labels) != n:
        raise ParseError(0, "labels sidecar must hold exactly %d labels" % n)
    return labels


def _parse_chosen_set(text: str):
    """Records, their line numbers and n; checks only the format: a
    comma, integer ids, none negative, none at or above '# n='."""
    records, lines = [], []
    declared_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                declared_n = int(m.group(1))
            continue
        if "," not in line:
            raise ParseError(lineno, "expected '<chosen>,<set members>'")
        left, right = line.split(",", 1)
        try:
            chosen = int(left)
            members = tuple(int(tok) for tok in right.split())
        except ValueError:
            raise ParseError(lineno, "alternatives must be integers") from None
        if chosen < 0 or min(members, default=0) < 0:
            raise ParseError(lineno, "alternative ids must be nonnegative")
        records.append((chosen, members))
        lines.append(lineno)
    max_id = max((max(m, default=0) for _, m in records), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ParseError(0, "alternative %d exceeds declared n=%d" % (max_id, n))
    return records, lines, n


def _parse_sf_matrix(text: str):
    """Records, their line numbers and n; checks only the format:
    whole-number tokens, one width of at least 3, 0/1 indicators."""
    records, lines = [], []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.replace(",", " ").split()
        try:
            row = [int(t) for t in toks]
        except ValueError:
            try:
                vals = [float(t) for t in toks]
            except ValueError:
                vals = [math.nan]
            if not all(v.is_integer() for v in vals):
                raise ParseError(lineno, "expected integer columns") from None
            row = [int(v) for v in vals]
        if width is None:
            width = len(row)
            if width < 3:
                raise ParseError(lineno, "need a chosen column plus >= 2 indicators")
        elif len(row) != width:
            raise ParseError(lineno, "expected %d columns, got %d" % (width, len(row)))
        indicators = row[1:]
        if any(v not in (0, 1) for v in indicators):
            raise ParseError(lineno, "membership indicators must be 0 or 1")
        records.append((row[0], tuple(i for i, v in enumerate(indicators) if v)))
        lines.append(lineno)
    n = width - 1 if width is not None else 0
    return records, lines, n


def load(path: str, format: str = "chosen-set-v1") -> ChoiceDataset:
    """Read a dataset file. Formats: "chosen-set-v1" (native) and
    "sf-matrix" (chosen index plus 0/1 membership columns)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parse = {"chosen-set-v1": _parse_chosen_set, "sf-matrix": _parse_sf_matrix}
    if format not in parse:
        raise ValueError("unknown dataset format %r" % format)
    records, lines, n = parse[format](text)
    if not records:
        raise EmptyDataset("no observations in %s" % path)
    labels = _load_labels(path, n)
    try:
        return ChoiceDataset(n=n, observations=tuple(records), labels=labels)
    except (ParseError, InvalidChoice) as exc:
        # the constructor numbers observations; name the file line instead
        raise type(exc)(lines[exc.line_number - 1],
                        str(exc).partition(": ")[2]) from None


def save(dataset: ChoiceDataset, path: str) -> None:
    """Write a dataset in the native chosen-set-v1 format (with labels
    sidecar when the dataset has labels)."""
    lines = ["# n=%d" % dataset.n]
    for chosen, members in dataset.observations:
        lines.append("%d,%s" % (chosen, " ".join(str(i) for i in members)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if dataset.labels is not None:
        with open(path + ".labels.json", "w", encoding="utf-8") as fh:
            json.dump({"labels": list(dataset.labels)}, fh)
            fh.write("\n")
