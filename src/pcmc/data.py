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

import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .base import ChoiceModel, probabilities_many, read_text, write_text
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


class ChoiceDataset:
    """A multiset of (chosen alternative, choice set) observations.

    Stored as columns: `chosen` and `set_id` are read-only int arrays
    with one entry per observation, in order, and `sets` is a table of
    sorted sets that `set_id` indexes. `observations` builds the
    (chosen, set) tuples on first use. Datasets are immutable.

    Construction validates once per distinct raw set and checks every
    choice in one array comparison; its ParseError and InvalidChoice
    carry the observation's 1-based position.
    """

    def __init__(self, n: int, observations, labels=None):
        _build(self, n, *_raw_columns(observations), labels)

    def _rows(self, rows):
        """The dataset of the given rows (an index array or a slice). It
        shares this dataset's set table, so nothing is validated again."""
        out = ChoiceDataset.__new__(ChoiceDataset)
        out.__dict__.update(n=self.n, labels=self.labels, sets=self.sets,
                            _start=self._start, _flat=self._flat)
        _set_columns(out, self.chosen[rows], self.set_id[rows], self._slot[rows])
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ChoiceDataset is immutable")

    def __len__(self) -> int:
        return len(self.chosen)

    def __eq__(self, other):
        if not isinstance(other, ChoiceDataset):
            return NotImplemented
        return (self.n, self.labels, self.observations) == (
            other.n, other.labels, other.observations)

    def __hash__(self):
        return hash((self.n, self.observations, self.labels))

    def __repr__(self):
        return "ChoiceDataset(n=%r, observations=%r, labels=%r)" % (
            self.n, self.observations, self.labels)

    @cached_property
    def observations(self) -> tuple:
        sets = self.sets
        return tuple(zip(self.chosen.tolist(), [sets[k] for k in self.set_id.tolist()]))

    @property
    def distinct_sets(self) -> tuple:
        return tuple(sorted(s for idx, _ in _set_terms(self) for s in map(tuple, idx.tolist())))

    @cached_property
    def _layout(self):
        return _tally(self)


def _raw_columns(observations):
    """Each observation's chosen id, the index of its members among the
    distinct member tuples, and those tuples in first-seen order."""
    raw, raw_id, chosen = {}, [], []
    for c, members in observations:
        raw_id.append(raw.setdefault(tuple(members), len(raw)))
        chosen.append(int(c))
    return chosen, raw_id, list(raw)


def _build(ds, n, chosen, raw_id, raw_sets, labels=None):
    """Fill ds with the validated columns of the rows where chosen[r]
    was picked from raw_sets[raw_id[r]]: each distinct raw set checked
    once (_canonical_set), each choice checked against its set in one
    array comparison, and the first fault in row order raised."""
    ids = chosen if isinstance(chosen, np.ndarray) else np.fromiter(
        (c if 0 <= c < n else -1 for c in chosen), np.int64, len(chosen))
    ids, raw_id = ids.astype(np.int64, copy=False), np.asarray(raw_id, np.intp)
    canon, faults = [], []
    for k, members in enumerate(raw_sets):
        try:
            canon.append(_canonical_set(members, n, 0))
        except (ParseError, IndexOutOfRange):
            canon.append(())
            faults.append(k)
    # rows before the first row of a faulty set all have valid sets
    end = min((r for k in faults for r in np.flatnonzero(raw_id == k)[:1].tolist()),
              default=len(ids))
    sets = tuple(sorted(set(canon)))
    where = {s: k for k, s in enumerate(sets)}
    set_id = np.array([where[s] for s in canon], np.intp)[raw_id]
    sizes = np.fromiter(map(len, sets), np.intp, len(sets))
    start = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.fromiter(itertools.chain.from_iterable(sets), np.int64, start[-1])
    # each choice's slot: a binary search of its own set's sorted members
    # in flat, all rows at once; no (set, member) key, so no n can wrap it
    want, stop = ids[:end], start[set_id[:end] + 1]
    lo, hi = start[set_id[:end]], stop
    for _ in range(int(sizes.max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        below = (lo < hi) & (flat[np.minimum(mid, len(flat) - 1)] < want)
        lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
    slot = np.minimum(lo, max(len(flat) - 1, 0))
    offered = (lo < stop) & (flat[slot] == want)
    if not offered.all():
        r = int(np.argmin(offered))
        raise InvalidChoice(r + 1, "chosen %d not in set %s" % (chosen[r], sets[set_id[r]]))
    if faults:
        _canonical_set(raw_sets[raw_id[end]], n, end + 1)
    if n < 2:  # after the sets: a file of malformed sets reports a set
        raise ValueError("universe needs at least 2 alternatives")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError("need %d labels, got %d" % (n, len(labels)))
    ds.__dict__.update(n=n, labels=labels, sets=sets, _start=start, _flat=flat)
    _set_columns(ds, ids, set_id, slot)
    for a in (start, flat):
        a.flags.writeable = False
    return ds


def _set_columns(ds, chosen, set_id, slot):
    """Store the per-row columns read-only; slot indexes the flattened
    set table at each row's choice."""
    for a in (chosen, set_id, slot):
        a.flags.writeable = False
    ds.__dict__.update(chosen=chosen, set_id=set_id, _slot=slot)


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
    alpha = _pseudocount(alpha)
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


def _pseudocount(alpha) -> float:
    """alpha as a float, once checked to be a finite pseudocount >= 0."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise NegativeAlpha("smoothing pseudocount must be finite and >= 0, got %r"
                            % alpha)
    return alpha


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
    order = np.random.default_rng(seed).permutation(n_obs)
    return dataset._rows(order[:n_train]), dataset._rows(order[n_train:])


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
    members = np.zeros((len(norm_sets), max_size), np.int64)
    for k, (s, mass) in enumerate(zip(norm_sets, probabilities_many(model, norm_sets))):
        cdfs[k, : len(mass)] = np.cumsum(mass)
        members[k, : len(s)] = s
    rng = np.random.default_rng(seed)
    set_ids = rng.integers(0, len(norm_sets), size=count)
    u = rng.random(count)
    pos = (u[:, None] > cdfs[set_ids]).sum(axis=1)
    last = np.array([len(s) - 1 for s in norm_sets])[set_ids]
    chosen = members[set_ids, np.minimum(pos, last)]
    return _build(ChoiceDataset.__new__(ChoiceDataset), model.n, chosen, set_ids, norm_sets)


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


def _tally(dataset):
    """The one tally of a dataset, grouped by set size for batched
    likelihoods: for each size, a read-only (m, s) array holding the
    sorted members of the m distinct observed sets of that size, in
    sorted set order, and one of how often each member was chosen."""
    start, flat = dataset._start, dataset._flat
    seen = np.flatnonzero(np.bincount(dataset.set_id, minlength=len(start) - 1))
    times = np.bincount(dataset._slot, minlength=len(flat)).astype(float)
    sizes = start[seen + 1] - start[seen]
    first = np.unique(sizes, return_index=True)[1]
    layout = []
    for size in sizes[np.sort(first)]:
        at = start[seen[sizes == size], None] + np.arange(size)
        idx, w = flat[at], times[at]
        idx.flags.writeable = w.flags.writeable = False
        layout.append((idx, w))
    return tuple(layout)


def _smoothed(layout, alpha: float):
    """The layout with alpha pseudocounts added to every member of every
    set; the same numbers smooth() puts in the count tables."""
    alpha = _pseudocount(alpha)
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

_MAX_N = int(np.iinfo(np.int64).max)  # ids are stored as int64


def _declared_n(lines, default):
    """The n of the last '# n=<int>' among the stripped lines, else default."""
    for s in reversed(lines):
        if s[:1] == "#" and (m := _HEADER_RE.match(s)):
            if (n := int(m.group(1))) > _MAX_N:
                raise ParseError(0, "declared n=%d exceeds %d" % (n, _MAX_N))
            return n
    return default


def _load_labels(path: str, n: int):
    sidecar = path + ".labels.json"
    if not os.path.exists(sidecar):
        return None
    try:
        labels = json.loads(read_text(sidecar))["labels"]
    except (KeyError, TypeError, ValueError):  # not UTF-8 JSON, or not {"labels": ...}
        labels = None
    if not isinstance(labels, list) or len(labels) != n:
        raise ParseError(0, 'labels sidecar must hold {"labels": [%d labels]}' % n)
    return labels


_CHUNK_ROWS = 4096


def _plain(lines, alphabet):
    """The lines as bytes, each ended by a newline; None if one holds a
    character outside the ASCII alphabet."""
    raw = ("\n".join(lines) + "\n").encode()
    return None if raw.translate(None, alphabet + b"\n") else raw


def _distinct_rows(block):
    """The distinct rows of a 2-d array and each row's index among them,
    keyed by each row's bytes (np.unique(axis=0) is far slower)."""
    block = np.ascontiguousarray(block)
    keys = block.view(np.dtype((np.void, block.strides[0]))).ravel()
    rows, inverse = np.unique(keys, return_inverse=True)
    return rows.view(block.dtype).reshape(len(rows), -1), inverse


def _chosen_set_columns(text: str):
    """n and the columns of a chosen-set-v1 file, tokenised as one byte
    array; None for a file the line loop must read. It reads only lines
    of one nonnegative decimal chosen id, one comma and at least two
    such member ids, all below any '# n='."""
    lines = list(map(str.strip, text.splitlines()))
    raw = _plain([s for s in lines if s and s[0] != "#"], b"0123456789-, \t")
    if raw is None:
        return None
    b = np.frombuffer(raw, np.uint8)
    token = b > ord(",")  # a digit or '-'
    starts = np.flatnonzero(token & ~np.r_[False, token[:-1]])
    newlines = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    rows = len(newlines)
    if len(commas) != rows or (np.searchsorted(newlines, commas) != np.arange(rows)).any():
        return None
    line = np.searchsorted(newlines, starts)
    left = starts < commas[line]  # the chosen id, if alone before the comma
    if (np.bincount(line[left], minlength=rows) != 1).any():
        return None
    try:
        values = np.array(raw.replace(b",", b" ").split()).astype(np.int64)
    except (ValueError, OverflowError):  # '-', '1-2', an id beyond int64
        return None
    members, size = values[~left], np.bincount(line[~left], minlength=rows)
    if values.min() < 0 or size.min() < 2 or members.max() >= _MAX_N:
        return None
    n = _declared_n(lines, int(members.max()) + 1)
    if members.max() >= n:
        return None
    raw_id, raw_sets = np.empty(rows, np.intp), []
    offset = np.cumsum(size) - size
    for s in np.unique(size):
        at = np.flatnonzero(size == s)
        sets, inverse = _distinct_rows(members[offset[at, None] + np.arange(s)])
        raw_id[at] = inverse + len(raw_sets)
        raw_sets += map(tuple, sets.tolist())
    return n, values[left], raw_id, raw_sets


def _sf_matrix_columns(text: str):
    """n and the columns of an sf-matrix file, parsed by np.loadtxt in
    chunks of int32 rows and keyed by their packed indicator bits; None
    for a file the line loop must read: any token but a decimal integer,
    a comma, a ragged row, a width below 3 or an indicator outside
    {0, 1}."""
    records = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    chosen, keys, width = [], [], None
    for i in range(0, len(records), _CHUNK_ROWS):
        chunk = records[i:i + _CHUNK_ROWS]
        if _plain(chunk, b"0123456789- \t") is None:
            return None
        try:
            a = np.loadtxt(chunk, dtype=np.int32, comments=None, ndmin=2)
        except (ValueError, OverflowError):
            return None
        width = width or a.shape[1]
        indicators = a[:, 1:]
        if (a.shape[1] != width or width < 3 or indicators.min() < 0
                or indicators.max() > 1):
            return None
        chosen.append(a[:, 0])
        keys.append(np.packbits(indicators, axis=1))
    if width is None:
        return None
    sets, raw_id = _distinct_rows(np.concatenate(keys))
    bits = np.unpackbits(sets, axis=1, count=width - 1)
    raw_sets = [tuple(np.flatnonzero(row).tolist()) for row in bits]
    return width - 1, np.concatenate(chosen), raw_id, raw_sets


def _parse_chosen_set(text: str):
    """n and the columns of a chosen-set-v1 file, one line at a time;
    checks only the format: a comma, integer ids, none negative, none at
    or above '# n='. The reference for _chosen_set_columns, and the path
    for any file it declines."""
    lines = list(map(str.strip, text.splitlines()))
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
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
        if max(members, default=0) >= _MAX_N:
            raise ParseError(lineno, "alternative ids must be below %d" % _MAX_N)
        records.append((chosen, members))
    max_id = max((max(m, default=0) for _, m in records), default=-1)
    n = _declared_n(lines, max_id + 1)
    if max_id >= n:
        raise ParseError(0, "alternative %d exceeds declared n=%d" % (max_id, n))
    return (n, *_raw_columns(records))


def _parse_sf_matrix(text: str):
    """n and the columns of an sf-matrix file, one line at a time;
    checks only the format: whole-number tokens, one width of at least
    3, 0/1 indicators. The reference for _sf_matrix_columns, and the
    path for any file it declines."""
    records = []
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
    return (width - 1 if width else 0, *_raw_columns(records))


_FORMATS = {"chosen-set-v1": (_chosen_set_columns, _parse_chosen_set),
            "sf-matrix": (_sf_matrix_columns, _parse_sf_matrix)}


def load(path: str, format: str = "chosen-set-v1") -> ChoiceDataset:
    """Read a dataset file. Formats: "chosen-set-v1" (native) and
    "sf-matrix" (chosen index plus 0/1 membership columns).

    The file is parsed as whole arrays; a file the array parser
    declines goes to the line loop, which raises any format error at
    its file line. Both give the same columns to one validation, whose
    errors are renumbered from observation to file line."""
    text = read_text(path)
    if format not in _FORMATS:
        raise ValueError("unknown dataset format %r" % format)
    columns, line_loop = _FORMATS[format]
    n, chosen, raw_id, raw_sets = columns(text) or line_loop(text)
    if len(chosen) == 0:
        raise EmptyDataset("no observations in %s" % path)
    labels = _load_labels(path, n)
    try:
        return _build(ChoiceDataset.__new__(ChoiceDataset), n, chosen, raw_id, raw_sets,
                      labels)
    except (ParseError, InvalidChoice) as exc:
        # observation k is the k-th line that is neither blank nor a comment
        lines = [k for k, s in enumerate(map(str.strip, text.splitlines()), start=1)
                 if s and s[0] != "#"]
        raise type(exc)(lines[exc.line_number - 1],
                        str(exc).partition(": ")[2]) from None


def save(dataset: ChoiceDataset, path: str) -> None:
    """Write a dataset in the native chosen-set-v1 format (with labels
    sidecar when the dataset has labels), each file written atomically."""
    members = [" ".join(map(str, s)) for s in dataset.sets]
    lines = ["# n=%d" % dataset.n] + [
        "%d,%s" % (c, members[k])
        for c, k in zip(dataset.chosen.tolist(), dataset.set_id.tolist())]
    write_text(path, "\n".join(lines) + "\n")
    if dataset.labels is not None:
        write_text(path + ".labels.json",
                   json.dumps({"labels": list(dataset.labels)}) + "\n")
