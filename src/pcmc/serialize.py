"""Deterministic serialization for models, reports, and curves.

All floats are rendered with the '%.17g' format, which round-trips
doubles exactly, so identical inputs produce byte-identical files on
any platform. Model JSON carries a "model" tag naming the family.

_emit hands the JSON text to a callback part by part: dumps joins the
parts, and _dump writes them into the file through base._atomic, so a
report is never held whole. An audit's violation records
(axioms.ViolationColumns) are written from their columns, a chunk of at
most _CHUNK records per '%'.
"""

import json
import math

import numpy as np

from .axioms import ViolationColumns
from .base import _atomic, read_text, write_text
from .ctmc import RateMatrix
from .errors import ParseError, PcmcError
from .luce import MmnlModel, MnlModel
from .model import FitReport, PcmcModel
from .param import BladeChest


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite value %r" % x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.17g" % x


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, '%.17g' floats, no
    whitespace surprises, one trailing newline. The text _dump writes."""
    parts = []
    _emit(obj, parts.append)
    parts.append("\n")
    return "".join(parts)


def _dump(obj, path: str) -> None:
    """Write dumps(obj) to path atomically, part by part as _emit makes it."""
    with _atomic(path) as fh:
        _emit(obj, fh.write)
        fh.write("\n")


def _emit(obj, add) -> None:
    """Hand obj's JSON text to add, part by part."""
    if isinstance(obj, dict):
        add("{")
        for i, (k, v) in enumerate(obj.items()):
            add("%s%s: " % (", " if i else "", json.dumps(str(k))))
            _emit(v, add)
        add("}")
    elif isinstance(obj, (list, tuple)):
        add("[")
        for i, v in enumerate(obj):
            if i:
                add(", ")
            _emit(v, add)
        add("]")
    elif isinstance(obj, bool) or obj is None:
        add(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        add(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        add(_fmt_float(obj))
    elif isinstance(obj, str):
        add(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), add)
    elif isinstance(obj, ViolationColumns):
        add("[")
        _violations(obj, add)
        add("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


_VIOLATION = ('{"item": %d, "subset": %s, "superset": %s, '
              '"p_subset": %.17g, "p_superset": %.17g}')
_CHUNK = 1024  # violation records per '%', which bounds the text held at once


def _violations(records, add) -> None:
    """Write violation records block by block: a block's float columns
    are checked finite, with -0.0 made 0.0, as arrays, then each chunk
    of at most _CHUNK records goes through one '%' over the repeated
    record template, each of its failing pairs' id lists written once."""
    sep = ""
    for f in records.blocks:
        p = []
        for x in (f.p_subset, f.p_superset):
            if not np.isfinite(x).all():
                _fmt_float(x[np.argmin(np.isfinite(x))])  # raises, naming the value
            p.append(x + 0.0)  # -0.0 + 0.0 is 0.0
        for lo in range(0, len(f.item), _CHUNK):
            rows = f.row[lo:lo + _CHUNK]
            first = int(rows[0])  # rows ascend, so the chunk's pairs are a slice
            flat = [None] * (5 * len(rows))  # the chunk's values, record by record
            flat[0::5] = f.item[lo:lo + _CHUNK].tolist()
            for j, sets in ((1, f.subset), (2, f.superset)):
                ids = _id_lists(sets[first:rows[-1] + 1])
                flat[j::5] = map(ids.__getitem__, (rows - first).tolist())
            flat[3::5], flat[4::5] = (x[lo:lo + _CHUNK].tolist() for x in p)
            add(sep + ", ".join([_VIOLATION] * len(rows)) % tuple(flat))
            sep = ", "


def _id_lists(rows) -> list:
    """The JSON text of each row of an (m, s) int array, by one '%'."""
    one = "[%s]" % ", ".join(["%d"] * rows.shape[1])
    return ("\0".join([one] * len(rows)) % tuple(rows.ravel().tolist())).split("\0")


def _int(d: dict, key: str) -> int:
    """d[key] if it is a JSON integer: int() would take 2.9, true or "2"."""
    if type(d[key]) is not int:
        raise ParseError(0, "%r must be an integer, got %r" % (key, d[key]))
    return d[key]


def _numbers(v) -> bool:
    """Whether v is a JSON number or a list of such values, nested."""
    return all(map(_numbers, v)) if type(v) is list else type(v) in (int, float)


def _floats(v, key: str) -> np.ndarray:
    """A JSON list of numbers, or of such lists, as a float array: a cast
    would also take strings, true and null (as nan)."""
    if type(v) is not list or not _numbers(v):
        raise ParseError(0, "%r must be a list of numbers" % key)
    return np.array(v, dtype=float)


def model_to_dict(model) -> dict:
    """Tagged JSON form of any fitted model."""
    if isinstance(model, PcmcModel):
        return {"model": "pcmc", "n": int(model.n),
                "rates": [float(v) for v in model.q.rates.ravel()]}
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
            "d": int(model.d),
            "blades": [[float(v) for v in row] for row in model.blades],
            "chests": [[float(v) for v in row] for row in model.chests],
        }
    raise TypeError("cannot serialize model of type %r" % type(model))


def model_from_dict(d: dict):
    kind = d.get("model")
    if kind == "pcmc":
        n = _int(d, "n")
        return PcmcModel(q=RateMatrix(n=n, rates=_floats(d["rates"], "rates").reshape(n, n)))
    if kind == "mnl":
        return MnlModel(gamma=_floats(d["gamma"], "gamma"))
    if kind == "mmnl":
        comps = tuple(MnlModel(gamma=_floats(g, "components"))
                      for g in d["components"])
        return MmnlModel(weights=_floats(d["weights"], "weights"),
                         components=comps)
    if kind == "bladechest":
        blades = _floats(d["blades"], "blades")
        chests = _floats(d["chests"], "chests")
        return BladeChest(n=blades.shape[0], d=_int(d, "d"),
                          blades=blades, chests=chests,
                          variant=d.get("variant", BladeChest.variant))
    raise ParseError(0, "unknown model tag %r" % kind)


def save_model(model, path: str) -> None:
    _dump(model_to_dict(model), path)


def load_model(path: str):
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "invalid JSON: %s" % exc.msg) from None
    if not isinstance(payload, dict):
        raise ParseError(0, "model file must hold a JSON object")
    try:
        return model_from_dict(payload)
    except PcmcError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(0, "malformed %r model: %r" % (payload.get("model"), exc)) from None


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
