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
import operator
import os
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .base import ChoiceModel, probabilities_many, read_text, write_text
from .ctmc import RateMatrix, _integer, _size
from .errors import (
    DegenerateSplit,
    EmptyDataset,
    EmptySubset,
    IndexOutOfRange,
    InvalidChoice,
    InvalidK,
    NegativeAlpha,
    ParseError,
)


def _canonical_set(members, n, number) -> tuple:
    """The members sorted, once checked to be >= 2 distinct integer ids in [0, n)."""
    try:
        out = tuple(sorted(map(operator.index, members)))
    except TypeError:
        raise ParseError(number, "set %r holds a non-integer id" % (tuple(members),)) from None
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
    carry the observation's 1-based position. Every dataset holds at
    least one observation and an integer n; no consumer checks again.
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
    distinct member tuples, and those tuples in first-seen order. Every
    id is read with operator.index before its set is keyed, so (0, 1.0)
    never merges with (0, 1); a non-integer id raises ParseError
    numbered by its observation."""
    raw, raw_id, chosen = {}, [], []
    for number, (c, members) in enumerate(observations, start=1):
        try:
            raw_id.append(raw.setdefault(tuple(map(operator.index, members)), len(raw)))
            chosen.append(operator.index(c))
        except TypeError:
            raise ParseError(number, "observation %d holds a non-integer id" % number) from None
    return chosen, raw_id, list(raw)


def _build(ds, n, chosen, raw_id, raw_sets, labels=None):
    """Fill ds with the validated columns of the rows where chosen[r]
    was picked from raw_sets[raw_id[r]]: each distinct raw set checked
    once (_canonical_set), each choice checked against its set in one
    array comparison, and the first fault in row order raised. No rows
    raise EmptyDataset, checked before n because an empty file gives n=0."""
    if len(chosen) == 0:
        raise EmptyDataset("a dataset needs at least one observation")
    n = _size(n, "universe size")
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
    return replace(
        tables,
        choice_counts={s: {i: c + alpha for i, c in per_item.items()}
                       for s, per_item in tables.choice_counts.items()},
        set_counts={s: c + alpha * len(s) for s, c in tables.set_counts.items()},
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
    count = _size(count, "observation count")
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


def _generated_universe(n) -> int:
    """A generator's n as an int once checked to be an integer >= 2."""
    n = _integer(n, "universe size")
    if n < 2:
        raise InvalidK("need at least 2 alternatives, got %d" % n)
    return n


def gen_random_q(n: int, seed: int):
    """Random rate matrix with entries uniform on [0, 1).

    Pairs whose two rates sum to less than 1 are scaled up so the sum is
    exactly 1; how many pairs needed that repair is recorded in the
    matrix metadata.
    """
    n = _generated_universe(n)
    rng = np.random.default_rng(seed)
    q = rng.random((n, n))
    sums = q + q.T
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    short = upper & (sums < 1.0)
    repaired = int(short.sum())
    with np.errstate(divide="ignore"):
        factor = np.where(sums < 1.0, 1.0 / sums, 1.0)
    np.fill_diagonal(factor, 1.0)
    return RateMatrix(n=n, rates=q * factor,
                      meta={"generator": "uniform", "pairs_rescaled": repaired})


def gen_mnl_simplex(n: int, seed: int):
    """Random Luce model with weights uniform on the simplex."""
    from .luce import MnlModel

    n = _generated_universe(n)
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

    n = _generated_universe(n)
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


def _records(text: str, alphabet: bytes):
    """The stripped lines of a file that holds a '#' (else []), and its
    record lines as one uint8 array, each line ended by a newline; None
    if a record holds a byte outside the ASCII alphabet. When the text
    holds a '#', a line filter drops comment and blank lines as the line
    loops do; otherwise blank lines stay, as lines holding no token."""
    lines = []
    if "#" in text:
        lines = list(map(str.strip, text.splitlines()))
        text = "\n".join([s for s in lines if s and s[0] != "#"])
    raw = text.encode()
    if raw.translate(None, alphabet + b"\n"):
        return None
    return lines, np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)


def _blocks(b):
    """The tokens of the lines of b, _CHUNK_ROWS lines at a time, so the
    position arrays stay small; a token is a run of digits. Each block is
    (block, ends, starts, count): its bytes, and the offset of each line's
    newline, the offset of each token and the number of tokens per line."""
    newlines = np.flatnonzero(b == ord("\n"))
    for first in range(0, len(newlines), _CHUNK_ROWS):
        lo = newlines[first - 1] + 1 if first else 0
        ends = newlines[first:first + _CHUNK_ROWS] - lo
        block = b[lo:lo + ends[-1] + 1]
        digit = np.r_[False, block >= ord("0")]  # digit[i + 1]: block[i] is a digit
        starts = np.flatnonzero(digit[1:] > digit[:-1])
        yield block, ends, starts, np.diff(np.searchsorted(starts, ends), prepend=0)


def _integers(b, starts):
    """The values of the runs of digits that begin at starts in the byte
    array b; None if one is longer than 18 digits, past which an int64
    could overflow."""
    value, at = np.zeros(len(starts), np.int64), starts.copy()
    for _ in range(18):  # in place: a fresh array per digit raised peak RSS
        digit = b[at] - np.uint8(ord("0"))  # wraps below '0'
        more = digit < 10
        if not more.any():
            return value
        np.multiply(value, 10, out=value, where=more)
        np.add(value, digit, out=value, where=more)
        at += more
    return None if (b[at] >= ord("0")).any() else value


def _distinct_rows(rows):
    """The distinct rows of a 2-d array, in no promised order, and each
    row's index among them, so that distinct[inverse] is rows. A row of at
    most 8 bytes is keyed as one big-endian integer of its bytes, a wider
    one sorted by its columns (np.lexsort): both far faster than np.unique(axis=0)."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if width <= 8:
        keys = np.zeros((len(rows), 8), np.uint8)
        keys[:, :width] = rows.view(np.uint8).reshape(len(rows), width)
        distinct, inverse = np.unique(keys.view(">u8").ravel(), return_inverse=True)
        return distinct.view(np.uint8).reshape(-1, 8)[:, :width].view(rows.dtype), inverse
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    inverse = np.empty(len(rows), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _chosen_set_columns(text: str):
    """n and the columns of a chosen-set-v1 file, read from its token
    blocks (_blocks); None for a file the line loop must read. It reads
    only lines of a chosen id, one comma and at least two member ids,
    each id at most 18 ASCII digits and all below any '# n='; so a
    '-', '+' or '.' sends the file to the line loop."""
    records = _records(text, b"0123456789, \t")
    if records is None:
        return None
    chosen, members, size = [], [], []
    for b, ends, starts, count in _blocks(records[1]):
        # one comma on each line holding a token and no other, so
        # commas[k] is record k's: its first token lies before that
        # comma and its second after it
        commas = np.flatnonzero(b == ord(","))
        lines = np.flatnonzero(count)
        count = count[lines]
        first = np.cumsum(count) - count  # each record's first token
        values = _integers(b, starts)
        if (not np.array_equal(np.searchsorted(ends, commas), lines) or (count < 3).any()
                or values is None or (starts[first] > commas).any()
                or (starts[first + 1] < commas).any()):
            return None
        chosen.append(values[first])
        members.append(np.delete(values, first))
        size.append(count - 1)
    chosen, members, size = map(np.concatenate, (chosen, members, size))
    if len(size) == 0:
        return None
    n = _declared_n(records[0], int(members.max()) + 1)
    if members.max() >= n:
        return None
    raw_id, raw_sets = np.empty(len(size), np.intp), []
    offset = np.cumsum(size) - size
    for s in np.unique(size):
        at = np.flatnonzero(size == s)
        sets, inverse = _distinct_rows(members[offset[at, None] + np.arange(s)])
        raw_id[at] = inverse + len(raw_sets)
        raw_sets += map(tuple, sets.tolist())
    return n, chosen, raw_id, raw_sets


def _sf_matrix_columns(text: str):
    """n and the columns of an sf-matrix file, read from its token
    blocks (_blocks), each indicator as its one byte and each set keyed
    by its packed indicator bits; None for a file the line loop must
    read: a byte outside comments but a digit, space, tab or newline (so
    a comma, '-', '+' or '.'), a chosen id of more than 18 digits, a
    ragged row, a width below 3, or an indicator but the byte 0 or 1."""
    records = _records(text, b"0123456789 \t")
    if records is None:
        return None
    chosen, keys, width = [], [], None
    for b, _, starts, count in _blocks(records[1]):
        count = count[count > 0]
        if len(count) == 0:
            continue
        width = width or int(count[0])
        if width < 3 or (count != width).any():
            return None
        bits = b[starts].reshape(-1, width)[:, 1:] - np.uint8(ord("0"))
        single = b[starts + 1].reshape(-1, width)[:, 1:] < ord("0")
        chosen.append(_integers(b, starts[::width]))
        if chosen[-1] is None or (bits > 1).any() or not single.all():
            return None
        keys.append(np.packbits(bits, axis=1))
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

    The file is read by the byte tokeniser (_blocks); a file the array
    parser declines goes to the line loop, which raises any format error at
    its file line. Both give the same columns to one validation, whose
    errors are renumbered from observation to file line."""
    if format not in _FORMATS:
        raise ValueError("unknown dataset format %r" % format)
    text = read_text(path)
    columns, line_loop = _FORMATS[format]
    n, chosen, raw_id, raw_sets = columns(text) or line_loop(text)
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
    """Write a dataset in the native chosen-set-v1 format and, when it has
    labels, their sidecar (else remove any old one), each file atomically."""
    members = [" ".join(map(str, s)) for s in dataset.sets]
    lines = ["# n=%d" % dataset.n] + [
        "%d,%s" % (c, members[k])
        for c, k in zip(dataset.chosen.tolist(), dataset.set_id.tolist())]
    write_text(path, "\n".join(lines) + "\n")
    sidecar = path + ".labels.json"
    if dataset.labels is not None:
        write_text(sidecar, json.dumps({"labels": list(dataset.labels)}) + "\n")
    elif os.path.exists(sidecar):  # an older dataset's labels would be read back
        os.remove(sidecar)
