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
membership indicators for the choice set. Each format has one reader:
plain sf-matrix blocks are read as fixed-width byte windows, all else as tokens.
"""

import itertools
import json
import math
import operator
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .base import ChoiceModel, probabilities_many, read_text, write_text
from .ctmc import RateMatrix, _real, _seed, _size
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


def _pseudocount(alpha) -> float:
    """alpha as a float, once checked to be a finite pseudocount >= 0."""
    alpha = _real(alpha, "smoothing pseudocount", NegativeAlpha)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise NegativeAlpha("smoothing pseudocount must be finite and >= 0, got %r"
                            % alpha)
    return alpha


def split(dataset: ChoiceDataset, train_fraction: float, seed: int):
    """Shuffle observations and cut them into train and test datasets.

    The train side gets floor(train_fraction * N) observations. Raises
    DegenerateSplit when either side would be empty.
    """
    f = _real(train_fraction, "train fraction", DegenerateSplit)
    if not (0.0 < f < 1.0):
        raise DegenerateSplit("train fraction must be in (0, 1), got %r" % f)
    n_obs = len(dataset)
    n_train = math.floor(f * n_obs)
    if n_train == 0 or n_train == n_obs:
        raise DegenerateSplit(
            "fraction %r of %d observations leaves an empty side" % (f, n_obs)
        )
    order = np.random.default_rng(_seed(seed)).permutation(n_obs)
    return dataset._rows(order[:n_train]), dataset._rows(order[n_train:])


def sample(model: ChoiceModel, sets: Sequence, count: int, seed: int) -> ChoiceDataset:
    """Draw observations from a model.

    Each observation picks a choice set uniformly at random from `sets`,
    then draws the chosen alternative from the model's distribution over
    that set. Sampling is vectorized but fully determined by the seed.
    """
    count, seed = _size(count, "observation count"), _seed(seed)
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
    exactly 1.
    """
    n, rng = _size(n, "universe size", 2), np.random.default_rng(_seed(seed))
    q = rng.random((n, n))
    sums = q + q.T
    with np.errstate(divide="ignore"):
        factor = np.where(sums < 1.0, 1.0 / sums, 1.0)
    np.fill_diagonal(factor, 1.0)
    return RateMatrix(n=n, rates=q * factor)


def gen_mnl_simplex(n: int, seed: int):
    """Random Luce model with weights uniform on the simplex."""
    from .luce import MnlModel

    n, rng = _size(n, "universe size", 2), np.random.default_rng(_seed(seed))
    e = rng.exponential(1.0, size=n)
    return MnlModel(gamma=e / e.sum())


def gen_bladechest_circle(n: int, seed: int):
    """Random two-dimensional embedding model with points on the unit circle.

    Blade and chest vectors are drawn independently at angles uniform on
    [0, 2*pi); the distance variant is used. Such models routinely
    produce intransitive pairwise predictions.
    """
    from .param import BladeChest

    n, rng = _size(n, "universe size", 2), np.random.default_rng(_seed(seed))
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
    set."""
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

_NOT_ASCII = "a record line may hold only printable ASCII and tabs"

_BELOW_MAX = "alternative ids must be below %d" % _MAX_N


def _records(text: str):
    """The stripped comment lines, and the text as a uint8 array of lines
    each ended by a newline, so line k of the array is line k of the file,
    with each comment line (led by '#' after any whitespace, holding no
    line break str.splitlines knows) cut out at its '#'s but its newline."""
    raw, comments, kept, at, end = text.encode(), [], [], 0, 0
    while (mark := raw.find(b"#", end)) >= 0:
        lo = raw.rfind(b"\n", 0, mark) + 1
        end = raw.find(b"\n", mark) % (len(raw) + 1)  # -1, no newline: the end
        line = raw[lo:end].decode()
        if line.strip()[:1] == "#" and line.splitlines() == [line]:
            comments.append(line.strip())
            kept.append(memoryview(raw)[at:lo])
            at = end
    raw = b"".join(kept + [memoryview(raw)[at:]]) if kept else raw
    return comments, np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)


def _blocks(b):
    """The lines of b, _CHUNK_ROWS at a time, so the position arrays stay
    small: each block is the index of its first line, its bytes and the
    offset of each line's newline."""
    newlines = np.flatnonzero(b == ord("\n"))
    for first in range(0, len(newlines), _CHUNK_ROWS):
        lo = newlines[first - 1] + 1 if first else 0
        ends = newlines[first:first + _CHUNK_ROWS] - lo
        yield first, b[lo:lo + ends[-1] + 1], ends


def _tokens(b, ends, odd):
    """The offset of each token of a block (a run of bytes above the space
    but commas; of digits, in a block not odd) and the number on each
    line; for an odd block also each token's stop and count of bytes but
    digits, and the line of each byte but printable ASCII, tab and newline."""
    word = np.r_[False, (b > ord(" ")) & (b != ord(",")) if odd else b >= ord("0")]
    starts = np.flatnonzero(word[1:] > word[:-1])
    count = np.diff(np.searchsorted(starts, ends), prepend=0)
    if not odd:
        return starts, count, None, None, ends[:0]
    stops = np.flatnonzero(word[1:] < word[:-1])
    # bytes but digits in each token, summed per token: no int64 count per byte
    other = np.add.reduceat(b - np.uint8(ord("0")) > 9, np.c_[starts, stops].ravel(),
                            dtype=np.int32)[::2]
    refused = (b - np.uint8(ord(" ")) > ord("~") - ord(" ")) & (b != ord("\t")) & (b != ord("\n"))
    return starts, count, stops, other, np.searchsorted(ends, np.flatnonzero(refused))


def _integers(b, starts):
    """The run of digits at each offset of starts in the byte array b as an
    int64 id, read as uint64: 2**63 - 1 if that or more or over 19 digits;
    and the offset past each run, or past its 19th digit."""
    value, at = np.zeros(len(starts), np.uint64), starts.copy()
    for _ in range(19):  # in place: a fresh array per digit raised peak RSS
        digit = b[at] - np.uint8(ord("0"))  # wraps below '0'
        more = digit < 10
        if not more.any():
            break
        np.multiply(value, 10, out=value, where=more)
        np.add(value, digit, out=value, where=more)
        at += more
    value[(value > _MAX_N) | (b[at] - np.uint8(ord("0")) < 10)] = _MAX_N
    return value.astype(np.int64), at


def _float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _raise_first(first, faults):
    """Raise ParseError at the first line that faults flag: (lines,
    message) pairs in the order one line's checks run, the lines indexing
    a block whose line 0 is file line first + 1."""
    hits = [(int(lines.min()), message) for lines, message in faults if len(lines)]
    if hits:  # the first line's first check: min keeps the first of equal keys
        line, message = min(hits, key=lambda hit: hit[0])
        raise ParseError(first + line + 1, message)


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
    """n and the columns of a chosen-set-v1 file, read from its tokens a
    block at a time, member ids in each block's narrowest unsigned type.
    Raises the first format fault at its line: a byte but printable ASCII
    and tabs, no comma, not one id before it or a second comma, an id not
    a run of digits, a '-', an id of 2**63 - 1 or more, in that order."""
    comments, records = _records(text)
    chosen, members, size = [], [], []
    for first, b, ends in _blocks(records):
        odd = bool(b.tobytes().translate(None, b"0123456789, \t\n"))
        starts, count, stops, other, refused = _tokens(b, ends, odd)
        values = _integers(b, starts)[0]
        commas = np.flatnonzero(b == ord(","))
        where = np.searchsorted(ends, commas)
        head = np.cumsum(count) - count  # each line's first token
        unread = [where[np.searchsorted(starts, commas) - head[where] != 1],  # ids before a comma
                  where[1:][where[1:] == where[:-1]]]  # a second comma
        minus = ends[:0]
        if odd:
            sign = (b[starts] == ord("-")) & (other == 1) & (stops - starts > 1)
            unread.append(np.searchsorted(ends, starts[(other > 0) & ~sign]))
            minus = np.searchsorted(ends, starts[sign])
        _raise_first(first, [
            (refused, _NOT_ASCII),
            (np.flatnonzero((count > 0) & (np.bincount(where, minlength=len(count)) == 0)),
             "expected '<chosen>,<set members>'"),
            (np.concatenate(unread), "alternatives must be integers"),
            (minus, "alternative ids must be nonnegative"),
            (np.searchsorted(ends, starts[values == _MAX_N]), _BELOW_MAX)])
        head = head[count > 0]
        chosen.append(values[head])
        values = np.delete(values, head)
        members.append(values.astype(np.min_scalar_type(values.max(initial=0))))
        size.append(count[count > 0] - 1)
    chosen, members, size = map(np.concatenate, (chosen, members, size))
    top = int(members.max(initial=0)) if len(size) else -1
    n = _declared_n(comments, top + 1)
    if top >= n:
        raise ParseError(0, "alternative %d exceeds declared n=%d" % (top, n))
    raw_id, raw_sets = np.empty(len(size), np.intp), []
    offset = np.cumsum(size) - size
    for s in np.unique(size):
        at = np.flatnonzero(size == s)
        sets, inverse = _distinct_rows(members[offset[at, None] + np.arange(s)])
        raw_id[at] = inverse + len(raw_sets)
        raw_sets += map(tuple, sets.tolist())
    return n, chosen, raw_id, raw_sets


def _plain_rows(b, ends, width):
    """The chosen ids and indicators of a block whose every line is a
    chosen id of 1 to 18 digits and, per bit, a space and a byte 0 or 1,
    as many as its first line has and width - 1 if given; else None."""
    bits = int(np.count_nonzero(b[:ends[0]] == ord(" ")))
    tail = ends - 2 * bits  # each line's first separator
    digits = tail - np.r_[0, ends[:-1] + 1]
    if bits < 2 or width not in (None, bits + 1) or not 1 <= digits.min() <= digits.max() <= 18:
        return None
    pairs = np.lib.stride_tricks.sliding_window_view(b, 2 * bits)[tail].view("<u2")
    if ((pairs & 0xFEFF) != 0x3020).any():  # each pair is 0x3020 + 0x100 * bit
        return None
    chosen = np.zeros(len(ends), np.int64)
    for k in range(int(digits.max())):  # digit k from the right, 0 past a line's first
        digit = np.where(k < digits, b[tail - 1 - k] - np.uint8(ord("0")), 0)
        if (digit > 9).any():
            return None
        chosen += digit * np.int64(10) ** k
    return chosen, pairs > 0x3020


def _sf_rows(first, b, ends, width):
    """The chosen ids and indicators of a block's records, from its tokens
    and any width known; None for a block of no record. Raises the first
    format fault at its line: a byte but printable ASCII and tabs, a token
    but a run of digits or a finite whole number to float(), a width other
    than the first record's or below 3, an indicator but 0 or 1, a chosen
    id of 2**63 - 1 or more, in that order."""
    raw = b.tobytes()
    odd = bool(raw.translate(None, b"0123456789 \t\n"))
    starts, count, stops, other, refused = _tokens(b, ends, odd)
    record, unread = count > 0, ends[:0]
    if odd:  # a line of commas alone, or holding a refused byte, is a record
        record[np.r_[refused, np.searchsorted(ends, np.flatnonzero(b == ord(",")))]] = True
        # each token as an int64: a run of digits exactly, any other through float()
        value, word = _integers(b, starts)[0], np.flatnonzero(other)
        real = np.array([_float(raw[i:j]) for i, j in zip(starts[word].tolist(),
                                                          stops[word].tolist())], float)
        bad, big = ~np.isfinite(real) | (np.floor(real) != real), real >= _MAX_N
        value[word] = np.maximum(np.where(bad | big, 0, real), -2.0 ** 63)
        value[word[big]] = _MAX_N
        unread = np.searchsorted(ends, starts[word[bad]])
    if (lines := np.flatnonzero(record)).size == 0:
        return None
    width = width or int(count[lines[0]])
    short = lines[:1] if width < 3 else lines[:0]
    ragged = lines[count[lines] != width]
    cut = min([len(ends)] + [int(a.min()) for a in (refused, unread, short, ragged) if len(a)])
    rows = lines[lines < cut]
    at = starts[:len(rows) * width].reshape(len(rows), width)
    chosen, end = _integers(b, at[:, :1].ravel())
    code = b[at] - np.uint8(ord("0"))  # each token's first digit
    if odd or np.count_nonzero(b >= ord("0")) != (end - at[:, :1].ravel()).sum() + at[:, 1:].size:
        # some token is not a digit, or some indicator is longer: read each whole
        table = (value if odd else _integers(b, starts)[0])[:at.size].reshape(at.shape)
        chosen, code = table[:, :1].ravel(), np.minimum(table.astype(np.uint64), 2)
    bits = code[:, 1:]
    _raise_first(first, [
        (refused, _NOT_ASCII),
        (unread, "expected integer columns"),
        (short, "need a chosen column plus >= 2 indicators"),
        (ragged, "expected %d columns, got %d" % (width, count[ragged[0]]) if len(ragged) else ""),
        (rows[np.flatnonzero(bits > 1) // max(width - 1, 1)],
         "membership indicators must be 0 or 1"),
        (rows[chosen == _MAX_N], _BELOW_MAX)])
    return chosen, bits == 1


def _sf_matrix_columns(text: str):
    """n and the columns of an sf-matrix file, each set keyed by its
    packed indicator bits. Each block is read by _plain_rows or else from
    its tokens (_sf_rows), which raise the first format fault at its line."""
    chosen, keys, width = [], [], None
    for first, b, ends in _blocks(_records(text)[1]):
        rows = _plain_rows(b, ends, width) or _sf_rows(first, b, ends, width)
        if rows is None:
            continue
        width = rows[1].shape[1] + 1
        chosen.append(rows[0])
        key = np.zeros((len(rows[0]), (width + 6) // 8 * 8), bool)  # whole bytes a row:
        key[:, :width - 1] = rows[1]  # a flat np.packbits is the fastest
        keys.append(np.packbits(key).reshape(len(key), -1))
    if width is None:
        return 0, np.zeros(0, np.int64), np.zeros(0, np.intp), []
    sets, raw_id = _distinct_rows(np.concatenate(keys))
    bits = np.unpackbits(sets, axis=1, count=width - 1)
    raw_sets = [tuple(np.flatnonzero(row).tolist()) for row in bits]
    return width - 1, np.concatenate(chosen), raw_id, raw_sets


_FORMATS = {"chosen-set-v1": _chosen_set_columns, "sf-matrix": _sf_matrix_columns}


def load(path: str, format: str = "chosen-set-v1") -> ChoiceDataset:
    """Read a dataset file. Formats: "chosen-set-v1" (native) and
    "sf-matrix" (chosen index plus 0/1 membership columns).

    Each format has one reader (_FORMATS), which reads the lines but
    comments a block at a time and raises a format fault at its file
    line (0 for the '# n=' header). Its columns go to one validation,
    whose errors are renumbered from observation to file line."""
    if format not in _FORMATS:
        raise ValueError("unknown dataset format %r" % format)
    text = read_text(path)
    n, chosen, raw_id, raw_sets = _FORMATS[format](text)
    labels = _load_labels(path, n)
    try:
        return _build(ChoiceDataset.__new__(ChoiceDataset), n, chosen, raw_id, raw_sets,
                      labels)
    except (ParseError, InvalidChoice) as exc:
        # observation k is the k-th line that holds more than spaces and
        # tabs once comment lines are cut, as the readers count them
        lines = [k for k, s in enumerate(_records(text)[1].tobytes().split(b"\n"), start=1)
                 if s.strip(b" \t")]
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
