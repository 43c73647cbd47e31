"""Shared structural types, the text reader and the atomic file writer.

A choice model is anything that knows its universe size and can assign
a probability distribution to any choice set of two or more
alternatives. The concrete models in this package (Markov-chain models,
Luce models, mixtures, embedding models) all satisfy this protocol, and
evaluation code is written against it rather than any single class.
"""

import os
from contextlib import contextmanager
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .ctmc import Distribution, _check_rows, _check_subset
from .errors import ParseError

# Probabilities are floored at this value inside logs.
LOG_FLOOR = 1e-12


@runtime_checkable
class ChoiceModel(Protocol):
    """Anything that maps choice sets to choice distributions. It may also
    define probabilities_many(idx), which maps an (m, s) int array of m
    sets of checked ids to the (m, s) array of their masses, row by row."""

    @property
    def n(self) -> int:
        """Number of alternatives in the universe."""
        ...

    def probabilities(self, subset: Sequence[int]) -> Distribution:
        """Choice distribution over the given set of alternatives."""
        ...


class BatchedModel:
    """Base of the package's families, which define n and
    probabilities_many: probabilities is that method on a stack of one."""

    def probabilities(self, subset: Sequence[int]) -> Distribution:
        """Choice distribution over one set: probabilities_many on a stack of one."""
        members = _check_subset(subset, self.n)
        mass = self.probabilities_many(np.array([members]))[0]
        return Distribution(support=members, mass=mass)


def probabilities_rows(model: ChoiceModel, idx) -> np.ndarray:
    """Choice masses of the model on each row of an (m, s) int array of
    equal-size sets, aligned with idx, once ctmc._check_rows has checked
    the batch: from the model's own probabilities_many, else one
    probabilities call per set."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.dtype.kind not in "iu":
        raise ValueError("need an (m, s) integer array, got %s %s" % (idx.dtype, idx.shape))
    _check_rows(idx, model.n)
    if hasattr(model, "probabilities_many"):
        return model.probabilities_many(idx)
    dists = [(s, model.probabilities(s).as_dict()) for s in idx.tolist()]
    return np.array([[d.get(i, 0.0) for i in s] for s, d in dists]).reshape(idx.shape)


def probabilities_many(model: ChoiceModel, sets: Sequence) -> list:
    """Choice masses of the model on each set, in input order, each
    aligned with its set's members: one probabilities_rows call per set
    size."""
    sizes = {}
    for k, s in enumerate(sets):
        sizes.setdefault(len(s), []).append(k)
    out = {}
    for ks in sizes.values():
        idx = np.array([sets[k] for k in ks])
        if idx.dtype.kind not in "iu":  # _check_subset names the id at fault
            idx = np.array([_check_subset(sets[k], model.n) for k in ks])
        out.update(zip(ks, probabilities_rows(model, idx)))
    return [out[k] for k in range(len(sets))]


def read_text(path: str) -> str:
    """A file's UTF-8 text with line ends made '\\n', as text mode reads
    it; a byte that is not UTF-8 raises ParseError at its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1,
                         "byte 0x%02x is not UTF-8 text" % raw[exc.start]) from None
    if "\r" in text:  # each replace is a pass over the whole text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@contextmanager
def _atomic(path: str):
    """A UTF-8 text file beside path, renamed into place when the block
    ends without error, else removed: path never holds a partial file."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_text(path: str, text: str) -> None:
    """Write text to path through _atomic."""
    with _atomic(path) as fh:
        fh.write(text)


def minimize(fun, x0, *args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: that import
    takes longer than loading the rest of the package, and a command
    that does not fit never needs it. The fitting modules import this
    name, so each holds it as a module attribute that a caller can swap,
    as the benchmark's tracer does; an import inside a fitter would
    bypass the swap. It is the package's only scipy import."""
    from scipy.optimize import minimize
    return minimize(fun, x0, *args, **kwargs)
