"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately dumb and direct: hand-solved linear
systems, a literal jump-chain simulator, and brute-force cycle
enumeration, so library results are checked against code that shares
none of the library's machinery.
"""

import bisect
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

from pcmc import ctmc, data
from pcmc.base import LOG_FLOOR, read_text
from pcmc.ctmc import TOL_EDGE, RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import InvalidChoice, ParseError


def cyclic_rates(alpha):
    """Three alternatives in a cycle: each beats one neighbor with
    probability alpha in the induced pairwise contest."""
    a = float(alpha)
    return np.array([
        [0.0, 1.0 - a, a],
        [a, 0.0, 1.0 - a],
        [1.0 - a, a, 0.0],
    ])


def cyclic_matrix(alpha):
    return RateMatrix(n=3, rates=cyclic_rates(alpha))


class BatchedChain:
    """A chain over any rate matrix, canonical or not, as a model with n
    and a batched probabilities_many only: the stationary kernel on each
    (m, s) batch. PcmcModel refuses a matrix that is not canonical, so
    this stands in for it where base.probabilities_many must reach the
    kernel with such a matrix."""

    def __init__(self, q):
        self.n, self._rates = q.n, q.rates

    def probabilities_many(self, idx):
        return ctmc._stationary_rows(self._rates, idx)[0]


# Hand-solved 3-state fixture. Rates: q01=0.3, q10=0.8, q02=1.0,
# q20=0.1, q12=0.5, q21=0.6. Balance equations give pi proportional to
# (61, 81, 145); check: -1.3*61 + 0.8*81 + 0.1*145 = 0.
ORACLE_RATES = np.array([
    [0.0, 0.3, 1.0],
    [0.8, 0.0, 0.5],
    [0.1, 0.6, 0.0],
])
ORACLE_PI = np.array([61.0, 81.0, 145.0]) / 287.0


# Found by a seeded search: default_rng(1), then for each draw
# n = rng.integers(2, 9) and rates = rng.random((n, n))
# * 10.0 ** rng.integers(-14, 14, (n, n)) * (rng.random((n, n)) < 0.7),
# diagonal zeroed. Draws 1413, 25966 and 10172: a replaced-row LU solve
# puts mass below -1e-9 on draw 1413 and fails on draw 25966, and least
# squares on [G^T; 1] gives draw 10172 masses that pass a residual test
# and lie at L1 1.0 from the exact ones, (3.3e-5, 5.7e-10, 0.99985,
# 1.1e-4). Each is one irreducible chain.
RETRY_RATES = np.array([
    [0.0, 7071980798.015167, 4.897172064282493, 1.0182440575402751e-13],
    [4711.029809360048, 0.0, 4.367857721866653e-15, 0.0],
    [7148155.1731278, 103490980926.98727, 0.0, 7.030932201747591e-12],
    [0.0, 4.8174485970633896e-05, 0.0, 0.0],
])
SINGULAR_RATES = np.array([
    [0.0, 7361484506454.836, 0.0, 1.5465648261742493e-07],
    [982731524990.0378, 0.0, 9.7308414918482, 0.0],
    [7.495309888406865e-10, 5080136.016575537, 0.0, 5.4125742561046587e-14],
    [0.0, 3.061424765977513e-14, 8.928627587082317e-07, 0.0],
])
WRONG_RETRY_RATES = np.array([
    [0.0, 8.444131932469547e-07, 24063746811.15576, 0.0],
    [0.04897045327682686, 0.0, 2.4220946546585465e-15, 4.5567277476635595e-10],
    [799243.2481309398, 0.0, 0.0, 6.89597991780652e-15],
    [6.010066064086173e-11, 3.2420057027515826e-14, 0.0, 0.0],
])


# Draw 404 of the seed-7 subset search (default_rng(7), per draw
# n = rng.integers(3, 9), rates as above with exponents in [-14, 14) and
# density 0.85, then six sorted subsets of size rng.integers(2, n + 1)),
# restricted to its set (0, 1, 2): the exact masses are (7.2e-8,
# 0.99999, 1.0e-5), and a replaced-row solve gives 5.1e-3 for the last.
DRAW_404_RATES = np.array([
    [0.0, 81761007359.34561, 5.4560066464878937e-10],
    [5858.6663506416617, 0.0, 1.8076635942092545e-15],
    [8.8222478483116313e-11, 8.9922874372285162e-11, 0.0],
])

# A 3-cycle 0 -> 2 -> 1 -> 0 with rates from 1e-11 to 1e300: its masses
# are about (5e-312, 0.5, 0.5).
CYCLE_300_RATES = np.array([
    [0.0, 0.0, 1e300],
    [1e-11, 0.0, 0.0],
    [0.0, 1e-11, 0.0],
])

# An irreducible 4-state chain whose rates span about 320 decades, more
# than double precision holds: its exact masses are (0, 1e-308, 1,
# 1e-319), but a censored jump probability underflows.
SPAN_320_RATES = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1e308, 1e-11],
    [0.0, 1.0, 0.0, 1e-11],
    [1e-11, 0.0, 1e308, 0.0],
])


def _exact_solve(a):
    """Solution of a nonsingular system of Fractions held as the rows of
    a, each ending in its right-hand side, by Gauss-Jordan elimination."""
    s = len(a)
    for col in range(s):
        piv = next(k for k in range(col, s) if a[k][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for k in range(s):
            if k != col and a[k][col] != 0:
                f = a[k][col] / a[col][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[col])]
    return [a[k][s] / a[k][k] for k in range(s)]


def exact_closed_classes(rates, members):
    """Closed classes of the chain restricted to members, as sorted
    tuples of ids ordered by smallest member, from a depth-first search
    of each member's reachable set along rates above TOL_EDGE."""
    r = np.asarray(rates, dtype=float)
    reach = {}
    for i in members:
        seen, todo = {i}, [i]
        while todo:
            a = todo.pop()
            for b in members:
                if b not in seen and r[a, b] > TOL_EDGE:
                    seen.add(b)
                    todo.append(b)
        reach[i] = seen
    # i lies in a closed class when everything it reaches reaches it back
    return sorted({tuple(sorted(seen)) for i, seen in reach.items()
                   if all(i in reach[j] for j in seen)})


def _exact_masses(rates, members):
    """exact_stationary's masses as Fractions."""
    r = np.asarray(rates, dtype=float)
    closed = exact_closed_classes(r, members)
    if len(closed) != 1:
        raise ValueError("%d closed classes" % len(closed))
    cls = list(closed[0])
    s = len(cls)
    q = [[Fraction(float(r[i, j])) if i != j else Fraction(0) for j in cls] for i in cls]
    # row j of the system is sum_i pi_i q_ij = pi_j sum_k q_jk; the last
    # row is replaced by sum_i pi_i = 1
    a = [[q[i][j] - (sum(q[j]) if i == j else 0) for i in range(s)] + [Fraction(0)]
         for j in range(s)]
    a[-1] = [Fraction(1)] * (s + 1)
    mass = dict(zip(cls, _exact_solve(a)))
    return [mass.get(i, Fraction(0)) for i in members]


def exact_stationary(rates, members):
    """Stationary masses of the chain restricted to members, aligned
    with them, solved in exact rational arithmetic. A rate above
    TOL_EDGE is an edge; the one closed class is found from reachability
    and solved by Gaussian elimination on its balance equations with the
    rates read exactly, and every other member gets zero."""
    return np.array([float(p) for p in _exact_masses(rates, list(members))])


def exact_adjoint_gradient(rates, members, w):
    """dL/dq_ij of L = sum_k w_k log max(pi_k, LOG_FLOOR) over one set,
    as an array aligned with its members, in exact rational arithmetic.
    pi is exact_stationary's; the adjoint mu solves A^T mu = w / pi (0
    where pi_k <= LOG_FLOOR), A being the set's generator G transposed
    with its last row set to ones, by Gaussian elimination with the
    rates read exactly; with mu's last entry zeroed, dL/dq_ij is
    pi_i (mu_i - mu_j)."""
    r = np.asarray(rates, dtype=float)
    members = list(members)
    s = len(members)
    pi = _exact_masses(r, members)
    g = [Fraction(float(wk)) / p if p > LOG_FLOOR else Fraction(0)
         for wk, p in zip(w, pi)]
    q = [[Fraction(float(r[i, j])) if i != j else Fraction(0) for j in members]
         for i in members]
    # row i of A^T is row i of G, with its last entry set to one
    at = [[q[i][j] - (sum(q[i]) if i == j else 0) for j in range(s - 1)]
          + [Fraction(1), g[i]] for i in range(s)]
    mu = _exact_solve(at)
    mu[-1] = Fraction(0)
    return np.array([[float(pi[i] * (mu[i] - mu[j])) for j in range(s)]
                     for i in range(s)])


def random_canonical(rng, n):
    """Uniform rates with each pair scaled up to sum at least one."""
    rates = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            s = rates[i, j] + rates[j, i]
            if s <= 0.0:
                rates[i, j] = rates[j, i] = 0.5
            elif s < 1.0:
                rates[i, j] /= s
                rates[j, i] /= s
    return rates


def random_contractible(rng, sizes):
    """Canonical matrix whose cross-block rates depend only on the
    block pair. Returns (rates, blocks, block_level_rates)."""
    k = len(sizes)
    lam = random_canonical(rng, k)
    n = int(sum(sizes))
    blocks, start = [], 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    rates = np.zeros((n, n))
    for a in range(k):
        ia = np.array(blocks[a], dtype=int)
        rates[np.ix_(ia, ia)] = random_canonical(rng, sizes[a])
        for b in range(k):
            if a == b:
                continue
            ib = np.array(blocks[b], dtype=int)
            rates[np.ix_(ia, ib)] = lam[a, b]
    np.fill_diagonal(rates, 0.0)
    return rates, blocks, lam


def simulate_stationary(gen, steps, seed):
    """Monte-Carlo oracle: run the embedded jump chain of a generator
    and weight each visit by its expected holding time."""
    g = np.asarray(gen, dtype=float)
    m = g.shape[0]
    hold = np.empty(m)
    cum = []
    for i in range(m):
        out = np.clip(g[i], 0.0, None).copy()
        out[i] = 0.0
        total = out.sum()
        if total <= 0:
            raise ValueError("state %d is absorbing" % i)
        hold[i] = 1.0 / total
        cum.append(list(np.cumsum(out / total)))
    rng = np.random.default_rng(seed)
    draws = rng.random(steps)
    time_in = np.zeros(m)
    state = 0
    for t in range(steps):
        time_in[state] += hold[state]
        state = bisect.bisect_right(cum[state], draws[t])
        if state >= m:
            state = m - 1
    return time_in / time_in.sum()


def brute_force_cycles(beats, n):
    """Count 3-cycles by testing all triples directly."""
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                forward = ((i, j) in beats) + ((j, k) in beats) + ((k, i) in beats)
                if forward in (0, 3):
                    count += 1
    return count


def beats_from_rates(rates):
    """Tournament edges read straight off a rate matrix: i beats j iff
    q_ji > q_ij, i.e. the chain moves from j to i faster than back."""
    r = np.asarray(rates, dtype=float)
    n = r.shape[0]
    return {(i, j) if r[j, i] > r[i, j] else (j, i)
            for i in range(n) for j in range(i + 1, n)}


def min_pair_gap(rates):
    """Smallest |q_ij - q_ji| over all pairs: how far the entries must
    move before some edge of the induced tournament flips."""
    r = np.asarray(rates, dtype=float)
    upper = np.triu_indices(r.shape[0], k=1)
    return float(np.abs(r[upper] - r.T[upper]).min())


# Fitted rate matrices for the San Francisco commute datasets
# (SFwork / SFshop), pinned as external reference fixtures.
# Off-diagonal entries only, rounded to 3 decimals (FIXTURE_ROUNDING).
#
# Provenance: the source of these matrices (paper table, supplement
# version) is not recorded in this repository. A shopping count of 6
# cyclic triplets was once pinned against QHAT_SHOP; it is inconsistent
# with the matrix, which holds 10 by brute-force enumeration and by the
# out-degree identity, with no ties and every pair further apart than
# rounding could explain. Reversing the single pair (3, 7) would give 6,
# which fits a transcription slip but does not prove one; the matrix is
# left as it is until the paper's Q-hat table can be checked against it.
FIXTURE_ROUNDING = 5e-4
QHAT_WORK_CYCLES = 2
QHAT_SHOP_CYCLES = 10

QHAT_WORK = np.array([
    [0.0, 2.314, 0.557, 0.0, 0.0, 1.004],
    [18.17, 0.0, 0.776, 1.836, 2.075, 6.713],
    [4.84, 7.752, 0.0, 1.042, 14.476, 7.884],
    [1.0, 0.105, 0.456, 0.0, 3.65, 7.937],
    [21.201, 9.108, 3.323, 7.363, 0.0, 6.704],
    [11.459, 3.014, 0.117, 5.67, 12.334, 0.0],
])

QHAT_SHOP = np.array([
    [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 5.142, 28.122],
    [0.0, 0.0, 3.363, 0.0, 0.0, 2.03, 2.433, 5.133],
    [1.635, 0.0, 0.0, 0.637, 0.243, 0.0, 4.877, 15.553],
    [0.0, 12.73, 5.95, 0.0, 2.174, 0.0, 1.0, 2.601],
    [1.0, 3.487, 4.458, 0.194, 0.0, 0.0, 5.227, 1.0],
    [1.0, 1.143, 5.788, 6.841, 6.344, 0.0, 6.15, 4.482],
    [1.331, 1.305, 0.136, 0.0, 0.226, 0.0, 0.0, 27.695],
    [0.0, 0.0, 0.402, 10.521, 0.0, 0.0, 1.602, 0.0],
])


def pairwise_from_rates(rates):
    """Pairwise win probabilities induced by a rate matrix: the
    two-state stationary mass, p_ij = q_ji / (q_ij + q_ji)."""
    r = np.asarray(rates, dtype=float)
    n = r.shape[0]
    p = np.full((n, n), 0.5)
    for i in range(n):
        for j in range(n):
            if i != j:
                p[i, j] = r[j, i] / (r[i, j] + r[j, i])
    return p


def random_terms(rng, n, sizes):
    """Objective groups (idx, weights) as data._set_terms lays them out,
    one (m, s) pair per size, for one random set of each given size,
    with smoothed-count-like weights in [0.1, 20)."""
    by_size = {}
    for k in sizes:
        s = sorted(rng.choice(n, size=k, replace=False).tolist())
        by_size.setdefault(k, []).append((s, rng.uniform(0.1, 20.0, size=k)))
    return [(np.array([s for s, _ in rows]), np.array([w for _, w in rows]))
            for rows in by_size.values()]


def plain_tally(rows):
    """{set: {member: times chosen}} over observations (chosen, set),
    every member of an observed set present, unchosen ones at 0."""
    out = {}
    for chosen, members in rows:
        s = tuple(sorted(members))
        per = out.setdefault(s, dict.fromkeys(s, 0))
        per[chosen] += 1
    return out


_MAX_N = 2 ** 63 - 1  # ids are stored as int64


def _record_lines(text):
    """(line number, stripped line) of each record line of a dataset
    file: lines end at '\n', a line of spaces and tabs is blank, and a
    line is a comment when '#' leads it after any whitespace and it holds
    no line break that str.splitlines knows. A record line holding a
    character but printable ASCII or a tab raises ParseError."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t") or (line.strip()[:1] == "#"
                                     and line.splitlines() == [line]):
            continue
        if any(not (" " <= c <= "~" or c == "\t") for c in line):
            raise ParseError(lineno, "a record line may hold only printable ASCII and tabs")
        yield lineno, line.strip()


def parse_chosen_set(text):
    """n, the (chosen, members) records of a chosen-set-v1 file and the
    line of each, one line at a time; checks only the format: a comma,
    ids written as runs of digits, none negative, none of more than 19
    digits or at or above 2**63 - 1 or '# n='. The reference for data's
    chosen-set-v1 reader."""
    records, linenos = [], []
    for lineno, line in _record_lines(text):
        if "," not in line:
            raise ParseError(lineno, "expected '<chosen>,<set members>'")
        left, right = line.split(",", 1)
        tokens = [left.strip()] + right.split()
        if not all(re.fullmatch("-?[0-9]+", tok) for tok in tokens):
            raise ParseError(lineno, "alternatives must be integers")
        if any(tok[0] == "-" for tok in tokens):
            raise ParseError(lineno, "alternative ids must be nonnegative")
        ids = [int(tok) if len(tok) <= 19 else _MAX_N for tok in tokens]
        if max(ids) >= _MAX_N:
            raise ParseError(lineno, "alternative ids must be below %d" % _MAX_N)
        records.append((ids[0], tuple(ids[1:])))
        linenos.append(lineno)
    max_id = max((max(m, default=0) for _, m in records), default=-1)
    n = data._declared_n([s.strip() for s in text.split("\n")], max_id + 1)
    if max_id >= n:
        raise ParseError(0, "alternative %d exceeds declared n=%d" % (max_id, n))
    return n, records, linenos


def parse_sf_matrix(text):
    """n, the (chosen, members) records of an sf-matrix file and the line
    of each, one line at a time; checks only the format: whole-number
    tokens, a run of digits read as an integer (2**63 - 1 if longer than
    19 digits) and any other token by float() (at least -2**63), one
    width of at least 3, 0/1 indicators, a chosen id below 2**63 - 1. The
    reference for data's sf-matrix reader."""
    records, linenos, width = [], [], None
    for lineno, line in _record_lines(text):
        row = []
        for tok in line.replace(",", " ").split():
            if tok.isdigit():
                row.append(int(tok) if len(tok) <= 19 else _MAX_N)
                continue
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not value.is_integer():
                raise ParseError(lineno, "expected integer columns")
            row.append(max(int(value), -2 ** 63))
        if width is None:
            width = len(row)
            if width < 3:
                raise ParseError(lineno, "need a chosen column plus >= 2 indicators")
        elif len(row) != width:
            raise ParseError(lineno, "expected %d columns, got %d" % (width, len(row)))
        indicators = row[1:]
        if any(v not in (0, 1) for v in indicators):
            raise ParseError(lineno, "membership indicators must be 0 or 1")
        if row[0] >= _MAX_N:
            raise ParseError(lineno, "alternative ids must be below %d" % _MAX_N)
        records.append((row[0], tuple(i for i, v in enumerate(indicators) if v)))
        linenos.append(lineno)
    return (width - 1 if width else 0), records, linenos


def reference_load(path, fmt):
    """data.load through the reference parsers: the file read one line at
    a time, then one validation, its errors renumbered from observation
    to the line of each record."""
    text = read_text(path)
    parse = {"chosen-set-v1": parse_chosen_set, "sf-matrix": parse_sf_matrix}[fmt]
    n, records, linenos = parse(text)
    labels = data._load_labels(path, n)
    try:
        return ChoiceDataset(n, records, labels)
    except (ParseError, InvalidChoice) as exc:
        raise type(exc)(linenos[exc.line_number - 1],
                        str(exc).partition(": ")[2]) from None


def mixture_loglik(x, k, n, sets):
    """Log-likelihood of a mixture of k logits, one set and one member at
    a time: x holds k rows of n utilities, then k mixing logits; sets
    lists (members, counts)."""
    top = max(x[k * n:])
    z = [math.exp(b - top) for b in x[k * n:]]
    mixing = [v / sum(z) for v in z]
    total = 0.0
    for members, counts in sets:
        for i, count in zip(members, counts):
            p = 0.0
            for c in range(k):
                u = x[c * n:(c + 1) * n]
                p += mixing[c] * math.exp(u[i]) / sum(math.exp(u[j]) for j in members)
            total += count * math.log(p)
    return total


def central_gradient(f, x, step):
    """Centered-difference gradient of a scalar function, one
    coordinate at a time; step is a scalar or one step per coordinate."""
    x = np.asarray(x, dtype=float)
    step = np.broadcast_to(step, x.shape)
    grad = np.empty(x.shape)
    for k in np.ndindex(x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[k] += step[k]
        lo[k] -= step[k]
        grad[k] = (f(hi) - f(lo)) / (2.0 * step[k])
    return grad


def all_nestings(n, max_universe=12):
    """(B minus one item, B) as tuples for every set B of size >= 3, in
    size, then lexicographic, then dropped-position order; above
    max_universe only each item dropped from the full universe. The
    plain loop the audit's nesting blocks must reproduce."""
    nestings = []
    if n <= max_universe:
        for size in range(3, n + 1):
            for b in itertools.combinations(range(n), size):
                for i in range(size):
                    nestings.append((b[:i] + b[i + 1:], b))
    else:
        full = tuple(range(n))
        for i in range(n):
            nestings.append((full[:i] + full[i + 1:], full))
    return nestings


def reference_dumps(obj) -> str:
    """The serializer as first written, one recursive join per level:
    insertion-ordered keys, '%.17g' floats with -0.0 written as 0, no
    non-finite values, one trailing newline. serialize.dumps must match
    it byte for byte."""
    return _reference_emit(obj) + "\n"


def _reference_emit(obj) -> str:
    if isinstance(obj, dict):
        items = ("%s: %s" % (json.dumps(str(k)), _reference_emit(v))
                 for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("cannot serialize non-finite value %r" % x)
        return "%.17g" % (0.0 if x == 0.0 else x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _reference_emit(obj.tolist())
    raise TypeError("cannot serialize %r" % type(obj))
