"""Byte identity of seeded outputs, checked against a committed manifest.

write_artifacts writes a fixed set of files: the `synth`, `fit`, `eval`,
`audit` and `curve` outputs of three seeded regimes, written through
pcmc.cli.main, and a few library arrays written as exact text.
golden_manifest.json holds the sha256 of each file, a fingerprint of
each of its lines, and the numpy, scipy and BLAS versions that wrote it.
A change that means to move outputs regenerates the manifest with

    PYTHONPATH=src python3 tests/test_golden.py

and lists every moved artifact, with the reason, in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import scipy

from pcmc import axioms, data, luce, model, param
from pcmc.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_manifest.json")
REGIMES = ("randq", "mnl", "bladechest")
SEEDS = (1, 2, 3)
KINDS = ("pcmc", "mnl", "mmnl", "bladechest")
# hex digits of each line's sha256 kept as its fingerprint: the line a
# mismatch names is the first differing one unless its fingerprints
# collide, which happens for one line in 4096
FINGERPRINT = 3


def _cli(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, "pcmc %s exited %d" % (" ".join(map(str, argv)), code)


def _write_rows(path, rows):
    """One row per line, each float by its shortest exact repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(repr, np.asarray(row, dtype=float).tolist())) + "\n"
                      for row in rows)


def write_artifacts(root):
    """Write every artifact under root; return their names, sorted, as
    paths relative to root."""
    for regime in REGIMES:
        for seed in SEEDS:
            d = os.path.join(root, "%s-%d" % (regime, seed))
            os.makedirs(d)
            ds = os.path.join(d, "data.txt")
            _cli("synth", "--regime", regime, "--n", 6, "--samples", 1500,
                 "--sets", 12, "--seed", seed, "--out", ds,
                 "--model-out", os.path.join(d, "gen.json"))
            scored = ["gen"]
            for kind in KINDS:
                _cli("fit", "--data", ds, "--model", kind, "--max-iters", 60,
                     "--k", 2, "--out", os.path.join(d, "fit-%s.json" % kind),
                     "--report", os.path.join(d, "fit-%s.report.json" % kind))
                scored.append("fit-%s" % kind)
            for name in scored:
                model_file = os.path.join(d, name + ".json")
                _cli("eval", "--model-file", model_file, "--data", ds,
                     "--out", os.path.join(d, "eval-%s.json" % name))
                _cli("audit", "--model-file", model_file, "--expand-k", 3,
                     "--out", os.path.join(d, "audit-%s.json" % name))
            if seed == SEEDS[0]:
                _cli("curve", "--data", ds, "--models", ",".join(KINDS),
                     "--fractions", "0.5,1.0", "--permutations", 2, "--k", 2,
                     "--max-iters", 40, "--out", os.path.join(d, "curve.csv"))

    for seed in SEEDS:
        d = os.path.join(root, "arrays-%d" % seed)
        os.makedirs(d)
        q = data.gen_random_q(6, seed)
        _write_rows(os.path.join(d, "gen_random_q.txt"), q.rates)
        _write_rows(os.path.join(d, "expand_copies.txt"),
                    axioms.expand_copies(q, 3)[0].rates)
        randq = data.load(os.path.join(root, "randq-%d" % seed, "data.txt"))
        half = model.PcmcModel(q=np.full((6, 6), 0.5))
        fitted = model.fit(randq, model.FitConfig(max_iters=60), start=half)
        _write_rows(os.path.join(d, "fit_from_start.txt"), fitted.params.q.rates)
        mnl = data.load(os.path.join(root, "mnl-%d" % seed, "data.txt"))
        mix = luce.fit_mmnl(mnl, k=2, seed=seed)
        _write_rows(os.path.join(d, "fit_mmnl.txt"),
                    [mix.weights] + [c.gamma for c in mix.components])
        blade = data.load(os.path.join(root, "bladechest-%d" % seed, "data.txt"))
        _write_rows(os.path.join(d, "q_from_btl.txt"),
                    param.q_from_btl(luce.fit_mnl(blade, alpha=0.1).gamma).rates)

    return sorted(os.path.relpath(os.path.join(top, f), root).replace(os.sep, "/")
                  for top, _, files in os.walk(root) for f in files)


def _fingerprint(line):
    return hashlib.sha256(line).hexdigest()[:FINGERPRINT]


def _digest(path):
    """The file's sha256 and its line fingerprints, concatenated."""
    with open(path, "rb") as fh:
        blob = fh.read()
    prints = "".join(map(_fingerprint, blob.splitlines(keepends=True)))
    return hashlib.sha256(blob).hexdigest(), prints


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas["name"], blas["version"])}


def _first_differing_line(path, prints):
    """1-based number and text of the first line whose fingerprint differs
    from the manifest's, the text cut to 160 characters."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    for k in range(max(len(lines), len(prints) // FINGERPRINT)):
        want = prints[k * FINGERPRINT:(k + 1) * FINGERPRINT]
        if k >= len(lines):
            return k + 1, "<the file ends>"
        if _fingerprint(lines[k]) != want:
            return k + 1, lines[k].decode("utf-8", "replace").rstrip("\n")[:160]
    return None, "<every line matches; the bytes differ>"


def write_manifest(path=MANIFEST):
    with tempfile.TemporaryDirectory() as root:
        names = write_artifacts(root)
        entries = [(name, _digest(os.path.join(root, name))) for name in names]
    body = ",\n".join("  %s: %s" % (json.dumps(name), json.dumps(list(d)))
                      for name, d in entries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"versions": %s,\n "artifacts": {\n%s\n}}\n'
                 % (json.dumps(versions()), body))
    return len(entries)


def test_artifacts_match_golden_manifest(tmp_path):
    with open(MANIFEST, encoding="utf-8") as fh:
        golden = json.load(fh)
    names = write_artifacts(str(tmp_path))
    expected = golden["artifacts"]
    problems = ["missing: %s" % name for name in sorted(set(expected) - set(names))]
    problems += ["not in the manifest: %s" % name
                 for name in names if name not in expected]
    for name in names:
        if name in expected:
            path = str(tmp_path / name)
            if _digest(path)[0] != expected[name][0]:
                line, text = _first_differing_line(path, expected[name][1])
                problems.append("differs: %s, first at line %s: %s" % (name, line, text))
    if problems:
        now = versions()
        moved = ["%s %s -> %s" % (k, golden["versions"].get(k), v)
                 for k, v in now.items() if golden["versions"].get(k) != v]
        problems.append("versions: %s" % ("; ".join(moved) if moved
                                          else "same as the manifest's (%s)" % now))
    assert not problems, "%d of %d artifacts:\n%s" % (
        len(problems) - 1, len(names), "\n".join(problems))


if __name__ == "__main__":
    count = write_manifest()
    print("wrote %d artifact hashes to %s" % (count, MANIFEST))
