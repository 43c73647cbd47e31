"""The benchmark's workloads: seeded inputs, CLI command sequences and
correctness checks.

Each workload writes its input files from the seed alone, then runs a
fixed list of ``pcmc`` commands on them. The checks recompute what the
commands wrote with the independent code in ``oracle.py``.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

import oracle

# Pseudocount the CLI's fit command applies by default; the checks
# recompute the fitted objective with it.
ALPHA = 0.1

# Absolute agreement required between a library output and its oracle.
MATCH_TOL = 1e-9

# Supersets per audited model whose nestings are re-solved by the oracle.
ORACLE_SUPERSETS = 200


@dataclass(frozen=True)
class Scale:
    fit_n: int
    fit_sets: int
    fit_samples: int
    fit_iters: int
    audit_n: int
    audit_samples: int
    luce_n: int
    luce_menus: int
    luce_samples: int


SCALES = {
    "full": Scale(fit_n=10, fit_sets=25, fit_samples=5000, fit_iters=40,
                  audit_n=10, audit_samples=6000,
                  luce_n=20, luce_menus=150, luce_samples=62500),
    "smoke": Scale(fit_n=5, fit_sets=6, fit_samples=300, fit_iters=15,
                   audit_n=5, audit_samples=200,
                   luce_n=6, luce_menus=20, luce_samples=2500),
}


class Workload:
    """Inputs, commands and checks of one workload.

    ``generate`` writes the inputs into ``root`` and returns them as a
    manifest; ``commands`` lists (kind, argv) pairs for ``pcmc.cli.main``;
    ``check`` returns (command index, message) for each failed check;
    ``quality`` returns the held-out error and the training negative
    log-likelihood per observation of the workload's models.
    """

    name = None

    def __init__(self, scale):
        self.scale = scale


def _save_sf_matrix(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for chosen, menu in dataset.observations:
            mask = ["0"] * dataset.n
            for i in menu:
                mask[i] = "1"
            fh.write("%d %s\n" % (chosen, " ".join(mask)))


def _eval_checks(index, model_path, rows):
    """Compare ``pcmc eval`` output for a model with the oracle's error."""
    out = oracle.read_json(model_path + ".eval")
    want = oracle.prediction_error(oracle.read_json(model_path), rows)
    problems = []
    if abs(out["error"] - want) > MATCH_TOL:
        problems.append((index, "held-out error %.17g, oracle %.17g" % (out["error"], want)))
    if out["n_test"] != len(rows):
        problems.append((index, "n_test %d, file has %d rows" % (out["n_test"], len(rows))))
    return problems


def _quality(pcmc, scored):
    """Mean held-out error and mean training negative log-likelihood per
    observation over (model path, training dataset) pairs."""
    errors = [oracle.read_json(path + ".eval")["error"] for path, _ in scored]
    nll = [-pcmc.log_likelihood(pcmc.load_model(path), data) / len(data)
           for path, data in scored]
    return sum(errors) / len(errors), sum(nll) / len(nll)


class FitChain(Workload):
    """Rate-matrix and blade-chest fits on randq data, then held-out scoring.

    Both fits are capped at ``fit_iters`` optimizer iterations. Uncapped,
    the rate-matrix fit stops anywhere between 70 and 200 iterations
    depending on the seed, which would make fit time a property of the
    seed rather than of the code.
    """

    name = "fit-chain"

    def generate(self, pcmc, seed, root):
        s = self.scale
        all_path = os.path.join(root, "all.txt")
        gen_path = os.path.join(root, "generator.json")
        rc = pcmc.cli.main([
            "synth", "--regime", "randq", "--n", str(s.fit_n),
            "--samples", str(s.fit_samples), "--sets", str(s.fit_sets),
            "--seed", str(seed), "--out", all_path, "--model-out", gen_path])
        if rc != 0:
            raise RuntimeError("pcmc synth exited with %d" % rc)
        train, test = pcmc.split(pcmc.load(all_path), 0.8, seed)
        pcmc.save(train, os.path.join(root, "train.txt"))
        pcmc.save(test, os.path.join(root, "test.txt"))
        os.remove(all_path)
        return {"train": os.path.join(root, "train.txt"),
                "test": os.path.join(root, "test.txt"),
                "generator": gen_path,
                "models": {kind: os.path.join(root, kind + ".json")
                           for kind in ("pcmc", "bladechest")}}

    def commands(self, m):
        iters = str(self.scale.fit_iters)
        cmds = [("fit", ["fit", "--data", m["train"], "--model", kind,
                         "--max-iters", iters, "--out", path])
                for kind, path in m["models"].items()]
        cmds += [("eval", ["eval", "--model-file", path, "--data", m["test"],
                           "--out", path + ".eval"])
                 for path in m["models"].values()]
        return cmds

    def check(self, m):
        problems = []
        train = oracle.tally(oracle.read_chosen_set(m["train"]), ALPHA)
        uniform = sum(c * math.log(1.0 / len(menu))
                      for menu, per in train.items() for c in per.values())
        gen_ll = oracle.log_likelihood(oracle.read_json(m["generator"]), train)
        fitted = oracle.read_json(m["models"]["pcmc"])
        fit_ll = oracle.log_likelihood(fitted, train)
        if fit_ll < gen_ll - 1e-6 * abs(gen_ll):
            problems.append((0, "pcmc fit loglik %.6f below generator %.6f" % (fit_ll, gen_ll)))
        rates = oracle.rates_of(fitted)
        sums = rates + rates.T
        np.fill_diagonal(sums, np.inf)
        if sums.min() < 1.0 - 1e-9:
            problems.append((0, "pair-sum violation %.3e" % (1.0 - sums.min())))
        bc_ll = oracle.log_likelihood(oracle.read_json(m["models"]["bladechest"]), train)
        if not bc_ll > uniform:
            problems.append((1, "bladechest loglik %.6f not above uniform %.6f" % (bc_ll, uniform)))
        test = oracle.read_chosen_set(m["test"])
        for k, path in enumerate(m["models"].values()):
            problems += _eval_checks(2 + k, path, test)
        return problems

    def quality(self, pcmc, m):
        train = pcmc.load(m["train"])
        return _quality(pcmc, [(path, train) for path in m["models"].values()])


class Audit(Workload):
    """Axiom audit of two generator models, plus scoring each on data
    sampled from it. The models are generators, not fits, so fitter
    changes cannot alter this workload's inputs."""

    name = "audit"

    def generate(self, pcmc, seed, root):
        s = self.scale
        seeds = np.random.SeedSequence(seed).spawn(4)
        gens = {
            "randq": pcmc.PcmcModel(q=pcmc.gen_random_q(s.audit_n, seeds[0])),
            "bladechest": pcmc.gen_bladechest_circle(s.audit_n, seeds[1]),
        }
        menus = list(itertools.combinations(range(s.audit_n), 3))
        m = {"models": {}, "samples": {}}
        for (kind, gen), sample_seed in zip(gens.items(), seeds[2:]):
            m["models"][kind] = os.path.join(root, "gen-%s.json" % kind)
            m["samples"][kind] = os.path.join(root, "sample-%s.txt" % kind)
            pcmc.save_model(gen, m["models"][kind])
            pcmc.save(pcmc.sample(gen, menus, s.audit_samples, sample_seed),
                      m["samples"][kind])
        m["check_seed"] = seed
        return m

    def commands(self, m):
        cmds = [("audit", ["audit", "--model-file", path, "--out", path + ".audit"])
                for path in m["models"].values()]
        cmds += [("eval", ["eval", "--model-file", m["models"][kind],
                           "--data", m["samples"][kind],
                           "--out", m["models"][kind] + ".eval"])
                 for kind in m["models"]]
        return cmds

    def check(self, m):
        problems = []
        rng = np.random.default_rng(m["check_seed"])
        for k, path in enumerate(m["models"].values()):
            problems += [(k, msg) for msg in
                         self._check_audit(oracle.read_json(path),
                                           oracle.read_json(path + ".audit"), rng)]
        for k, kind in enumerate(m["models"]):
            rows = oracle.read_chosen_set(m["samples"][kind])
            problems += _eval_checks(2 + k, m["models"][kind], rows)
        return problems

    def _check_audit(self, model, report, rng):
        rates = oracle.rates_of(model)
        n = rates.shape[0]
        checks = {c["name"]: c for c in report["checks"]}
        problems = []
        if report["n"] != n:
            problems.append("audit n=%r, model has %d" % (report["n"], n))
        reg = checks["regularity"]
        if reg["pairs_checked"] != oracle.nesting_count(n):
            problems.append("%d nestings checked, want %d"
                            % (reg["pairs_checked"], oracle.nesting_count(n)))
        listed = {(v["item"], tuple(v["subset"]), tuple(v["superset"])): v
                  for v in reg["violations"]}
        for (item, sub, sup), v in listed.items():
            if len(sub) == 2:
                other = sub[1] if sub[0] == item else sub[0]
                closed = rates[other, item] / (rates[item, other] + rates[other, item])
                if abs(v["p_subset"] - closed) > MATCH_TOL:
                    problems.append("pair %s: p=%.17g, closed form %.17g" % (sub, v["p_subset"], closed))
        # A seeded sample of nestings, re-solved with the null-space oracle:
        # listed violations must carry the oracle's probabilities, and every
        # oracle violation must be listed.
        supers = [b for size in range(3, n + 1)
                  for b in itertools.combinations(range(n), size)]
        for b_pos in rng.choice(len(supers), size=min(ORACLE_SUPERSETS, len(supers)),
                                replace=False):
            sup = supers[b_pos]
            drop = sup[int(rng.integers(len(sup)))]
            sub = tuple(x for x in sup if x != drop)
            p_sub = dict(zip(sub, oracle.chain_probabilities(rates, sub)))
            p_sup = dict(zip(sup, oracle.chain_probabilities(rates, sup)))
            for item in sub:
                lo, hi = p_sub[item], p_sup[item]
                v = listed.get((item, sub, sup))
                if v is not None:
                    if max(abs(v["p_subset"] - lo), abs(v["p_superset"] - hi)) > MATCH_TOL:
                        problems.append("nesting %s<%s item %d off the oracle" % (sub, sup, item))
                elif lo < hi - 1e-9 - MATCH_TOL:
                    problems.append("nesting %s<%s item %d violation not listed" % (sub, sup, item))
        if checks["uniform_expansion"]["status"] != "pass":
            problems.append("uniform expansion %r" % checks["uniform_expansion"]["status"])
        cyc = checks["cyclic_triplets"]
        want = oracle.cyclic_triples(rates)
        if cyc["count"] != len(want) or sorted(cyc["witnesses"]) != want:
            problems.append("cyclic triples %d, closed-form pairs give %d"
                            % (cyc["count"], len(want)))
        return problems

    def quality(self, pcmc, m):
        return _quality(pcmc, [(path, pcmc.load(m["samples"][kind]))
                               for kind, path in m["models"].items()])


class WideLuce(Workload):
    """Luce and logit-mixture fits on a wide sf-matrix file.

    The mixture runs with ``--k 1``. With ``--k 2`` on Luce-generated
    data the mixture likelihood is flat between the two components, and
    the quasi-Newton restarts take anywhere from about 1,100 to 2,200
    objective calls depending on the seed.
    """

    name = "wide-luce"

    def generate(self, pcmc, seed, root):
        s = self.scale
        seeds = np.random.SeedSequence(seed).spawn(4)
        gen = pcmc.gen_mnl_simplex(s.luce_n, seeds[0])
        rng = np.random.default_rng(seeds[1])
        menus = set()
        while len(menus) < s.luce_menus:
            size = int(rng.integers(2, 7))
            menus.add(tuple(sorted(int(i) for i in
                                   rng.choice(s.luce_n, size=size, replace=False))))
        full = pcmc.sample(gen, sorted(menus), s.luce_samples, seeds[2])
        train, test = pcmc.split(full, 0.8, seeds[3])
        m = {"train": os.path.join(root, "train.sf"), "test": os.path.join(root, "test.sf"),
             "generator": os.path.join(root, "generator.json"),
             "models": {"mnl": os.path.join(root, "mnl.json"),
                        "mmnl": os.path.join(root, "mmnl.json")}}
        _save_sf_matrix(train, m["train"])
        _save_sf_matrix(test, m["test"])
        pcmc.save_model(gen, m["generator"])
        return m

    def commands(self, m):
        fmt = ["--format", "sf-matrix"]
        return [
            ("fit", ["fit", "--data", m["train"], "--model", "mnl",
                     "--out", m["models"]["mnl"]] + fmt),
            ("fit", ["fit", "--data", m["train"], "--model", "mmnl", "--k", "1",
                     "--out", m["models"]["mmnl"]] + fmt),
        ] + [("eval", ["eval", "--model-file", path, "--data", m["test"],
                       "--out", path + ".eval"] + fmt)
             for path in m["models"].values()]

    def check(self, m):
        problems = []
        rows = oracle.read_sf_matrix(m["train"])
        train = oracle.tally(rows, ALPHA)
        mnl = oracle.read_json(m["models"]["mnl"])
        gamma = np.array(mnl["gamma"])
        truth = np.array(oracle.read_json(m["generator"])["gamma"])
        l1 = float(np.abs(gamma - truth).sum())
        tol = 5.0 * math.sqrt(len(gamma) / len(rows))
        if l1 > tol:
            problems.append((0, "Luce weights %.4f from the generator in L1 (limit %.4f)" % (l1, tol)))
        resid = oracle.mnl_score_residual(gamma, train)
        if resid > 1e-6:
            problems.append((0, "Luce likelihood equations off by %.3e" % resid))
        mnl_ll = oracle.log_likelihood(mnl, train)
        mix_ll = oracle.log_likelihood(oracle.read_json(m["models"]["mmnl"]), train)
        if mix_ll < mnl_ll - 1e-6 * abs(mnl_ll):
            problems.append((1, "mixture loglik %.6f below Luce %.6f" % (mix_ll, mnl_ll)))
        test = oracle.read_sf_matrix(m["test"])
        for k, path in enumerate(m["models"].values()):
            problems += _eval_checks(2 + k, path, test)
        return problems

    def quality(self, pcmc, m):
        train = pcmc.load(m["train"], format="sf-matrix")
        return _quality(pcmc, [(path, train) for path in m["models"].values()])


WORKLOADS = {w.name: w for w in (FitChain, Audit, WideLuce)}
