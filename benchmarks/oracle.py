"""Reference computations that share no code with pcmc.

Files are parsed with plain Python, stationary distributions come from
``scipy.linalg.null_space`` of the restricted generator, and the Luce,
mixture and blade-chest probabilities from their closed forms. The
workload checks compare the library's outputs against these.
"""

import json
import math

import numpy as np
from scipy.linalg import null_space


def read_chosen_set(path):
    """(chosen, sorted menu) pairs from a chosen-set-v1 file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            left, right = line.split(",", 1)
            rows.append((int(left), tuple(sorted(int(t) for t in right.split()))))
    return rows


def read_sf_matrix(path):
    """(chosen, sorted menu) pairs from an sf-matrix file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            menu = tuple(i for i, t in enumerate(toks[1:]) if t == "1")
            rows.append((int(toks[0]), menu))
    return rows


def tally(rows, alpha=0.0):
    """{menu: {item: count + alpha}} over the observed menus."""
    out = {}
    for chosen, menu in rows:
        per = out.setdefault(menu, dict.fromkeys(menu, alpha))
        per[chosen] += 1.0
    return out


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def rates_of(model):
    """Rate matrix (rate from j to i at [j, i]) of a saved pcmc or
    blade-chest model, or None for Luce-family models."""
    kind = model["model"]
    if kind == "pcmc":
        n = model["n"]
        return np.array(model["rates"], dtype=float).reshape(n, n)
    if kind == "bladechest":
        b = np.array(model["blades"], dtype=float)
        c = np.array(model["chests"], dtype=float)
        if model.get("variant", "distance") == "inner":
            score = b @ c.T - (b @ c.T).T
        else:
            sq = ((b[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            score = sq - sq.T
        win = 1.0 / (1.0 + np.exp(-score))      # win[i, j]: i beats j
        rates = win.T.copy()
        np.fill_diagonal(rates, 0.0)
        return rates
    return None


def chain_probabilities(rates, menu):
    """Stationary distribution of the chain restricted to menu."""
    idx = np.array(menu, dtype=int)
    gen = rates[np.ix_(idx, idx)].copy()
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    basis = null_space(gen.T)
    if basis.shape[1] != 1:
        raise ValueError("menu %s has %d stationary directions" % (menu, basis.shape[1]))
    v = basis[:, 0]
    return v / v.sum()


def model_probabilities(model, menu):
    """Choice distribution of a saved model (as JSON) over menu."""
    rates = rates_of(model)
    if rates is not None:
        return chain_probabilities(rates, menu)
    idx = list(menu)
    if model["model"] == "mnl":
        g = np.array(model["gamma"], dtype=float)[idx]
        return g / g.sum()
    if model["model"] == "mmnl":
        mix = np.zeros(len(idx))
        for w, comp in zip(model["weights"], model["components"]):
            g = np.array(comp, dtype=float)[idx]
            mix += w * g / g.sum()
        return mix / mix.sum()
    raise ValueError("unknown model tag %r" % model["model"])


def log_likelihood(model, counts):
    """sum over menus and items of count * log p, p floored at 1e-12."""
    total = 0.0
    for menu, per in counts.items():
        p = model_probabilities(model, menu)
        w = np.array([per[i] for i in menu])
        keep = w > 0
        total += float(w[keep] @ np.log(np.clip(p[keep], 1e-12, None)))
    return total


def prediction_error(model, rows):
    """Observation-weighted mean L1 gap between model and empirical
    choice frequencies, over the menus in rows."""
    counts = tally(rows)
    total = 0.0
    for menu, per in counts.items():
        emp = np.array([per[i] for i in menu])
        total += emp.sum() * float(np.abs(model_probabilities(model, menu) - emp / emp.sum()).sum())
    return total / len(rows)


def nesting_count(n):
    """Number of (B minus one item, B) pairs with |B| >= 3."""
    return sum(math.comb(n, k) * k for k in range(3, n + 1))


def cyclic_triples(rates):
    """Cyclic triples from the two-state closed form: i beats j when
    q_ji / (q_ij + q_ji) > 1/2, i.e. q_ji > q_ij; a tie counts as a win
    for the higher index, as the library orients ties."""
    n = rates.shape[0]

    def beats(i, j):
        if rates[j, i] != rates[i, j]:
            return int(rates[j, i] > rates[i, j])
        return int(i > j)

    found = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                forward = beats(i, j) + beats(j, k) + beats(k, i)
                if forward in (0, 3):
                    found.append([i, j, k])
    return found


def mnl_score_residual(gamma, counts):
    """Largest relative gap in the Luce likelihood equations
    sum_S c_Si = sum_S N_S gamma_i / gamma(S), one per item."""
    n = len(gamma)
    chosen = np.zeros(n)
    expected = np.zeros(n)
    for menu, per in counts.items():
        idx = np.array(menu)
        c = np.array([per[i] for i in menu])
        chosen[idx] += c
        expected[idx] += c.sum() * gamma[idx] / gamma[idx].sum()
    return float(np.max(np.abs(chosen - expected) / chosen))
