"""Shared structural types, the text reader and the atomic file writer.

A choice model is anything that knows its universe size and can assign
a probability distribution to any choice set of two or more
alternatives. The concrete models in this package (Markov-chain models,
Luce models, mixtures, embedding models) all satisfy this protocol, and
evaluation code is written against it rather than any single class.
"""

import os
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .ctmc import Distribution
from .errors import ParseError

# Probabilities are floored at this value inside logs.
LOG_FLOOR = 1e-12


@runtime_checkable
class ChoiceModel(Protocol):
    """Anything that maps choice sets to choice distributions."""

    @property
    def n(self) -> int:
        """Number of alternatives in the universe."""
        ...

    def probabilities(self, subset: Sequence[int]) -> Distribution:
        """Choice distribution over the given set of alternatives."""
        ...


def probabilities_many(model: ChoiceModel, sets: Sequence) -> list:
    """Choice masses of the model on each set, in input order: from the
    model's own probabilities_many when it has one, else one
    probabilities call per set, read item by item from its support."""
    if hasattr(model, "probabilities_many"):
        return model.probabilities_many(sets)
    dists = [model.probabilities(s) for s in sets]
    return [np.array([d.prob(i) for i in s]) for s, d in zip(sets, dists)]


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
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_text(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into
    place, so path never holds a partial file."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def minimize(fun, x0, *args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: that import
    takes longer than loading the rest of the package, and a command
    that does not fit never needs it. The fitting modules import this
    name, so each holds it as a module attribute that a caller can swap,
    as the benchmark's tracer does; an import inside a fitter would
    bypass the swap."""
    from scipy.optimize import minimize
    return minimize(fun, x0, *args, **kwargs)


def expit(x):
    """scipy.special.expit, imported on the first call so that loading
    the package needs only numpy; a module attribute of its importers
    for the same reason as minimize."""
    from scipy.special import expit
    return expit(x)
