"""Deterministic serialization for models, reports, and curves.

All floats are rendered with the '%.17g' format, which round-trips
doubles exactly, so identical inputs produce byte-identical files on
any platform. Model JSON carries a "model" tag naming the family.
"""

import json

import numpy as np

from .base import write_text
from .ctmc import RateMatrix
from .errors import ParseError
from .luce import MmnlModel, MnlModel
from .model import FitReport, PcmcModel
from .param import BladeChest


def _fmt_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite value %r" % x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.17g" % x


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, '%.17g' floats, no
    whitespace surprises, one trailing newline."""
    return _emit(obj) + "\n"


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = ("%s: %s" % (json.dumps(str(k)), _emit(v)) for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise TypeError("cannot serialize %r" % type(obj))


def rate_matrix_to_dict(q: RateMatrix) -> dict:
    return {"n": q.n, "rates": [float(v) for v in q.rates.ravel()]}


def rate_matrix_from_dict(d: dict) -> RateMatrix:
    n = int(d["n"])
    rates = np.array(d["rates"], dtype=float).reshape(n, n)
    return RateMatrix(n=n, rates=rates)


def model_to_dict(model) -> dict:
    """Tagged JSON form of any fitted model."""
    if isinstance(model, PcmcModel):
        return {"model": "pcmc", **rate_matrix_to_dict(model.q)}
    if isinstance(model, MnlModel):
        return {"model": "mnl", "gamma": [float(v) for v in model.gamma]}
    if isinstance(model, MmnlModel):
        return {
            "model": "mmnl",
            "weights": [float(v) for v in model.weights],
            "components": [[float(v) for v in c.gamma] for c in model.components],
        }
    if isinstance(model, BladeChest):
        return {
            "model": "bladechest",
            "variant": model.variant,
            "d": model.d,
            "blades": [[float(v) for v in row] for row in model.blades],
            "chests": [[float(v) for v in row] for row in model.chests],
        }
    raise TypeError("cannot serialize model of type %r" % type(model))


def model_from_dict(d: dict):
    kind = d.get("model")
    if kind == "pcmc":
        return PcmcModel(q=rate_matrix_from_dict(d))
    if kind == "mnl":
        return MnlModel(gamma=np.array(d["gamma"], dtype=float))
    if kind == "mmnl":
        comps = tuple(MnlModel(gamma=np.array(g, dtype=float))
                      for g in d["components"])
        return MmnlModel(weights=np.array(d["weights"], dtype=float),
                         components=comps)
    if kind == "bladechest":
        blades = np.array(d["blades"], dtype=float)
        chests = np.array(d["chests"], dtype=float)
        return BladeChest(n=blades.shape[0], d=int(d["d"]),
                          blades=blades, chests=chests,
                          variant=d.get("variant", "distance"))
    raise ParseError(0, "unknown model tag %r" % kind)


def save_model(model, path: str) -> None:
    write_text(path, dumps(model_to_dict(model)))


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, "invalid JSON: %s" % exc.msg) from None
    if not isinstance(payload, dict):
        raise ParseError(0, "model file must hold a JSON object")
    return model_from_dict(payload)


def fit_report_to_dict(report: FitReport) -> dict:
    return {
        "loglik": float(report.loglik),
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "constraint_violation": float(report.constraint_violation),
        "params": model_to_dict(report.params),
    }


def error_report_to_dict(report) -> dict:
    return {
        "error": float(report.error),
        "n_test": int(report.n_test),
        "per_set_errors": {
            " ".join(str(i) for i in s): float(v)
            for s, v in sorted(report.per_set_errors.items())
        },
    }


def curve_to_csv(curve) -> str:
    """CSV with one row per (model, fraction): model, fraction,
    mean_error, std_error, permutations."""
    lines = ["model,fraction,mean_error,std_error,permutations"]
    for lab in curve.models:
        for fi, f in enumerate(curve.fractions):
            mean = curve.mean_errors[lab][fi]
            std = curve.std_errors[lab][fi]
            cell = curve.cell_permutations[lab][fi]
            mean_s = "nan" if not np.isfinite(mean) else _fmt_float(mean)
            std_s = "nan" if not np.isfinite(std) else _fmt_float(std)
            lines.append("%s,%s,%s,%s,%d" % (lab, _fmt_float(f), mean_s, std_s, cell))
    return "\n".join(lines) + "\n"
