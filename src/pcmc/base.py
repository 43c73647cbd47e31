"""Shared structural types, and the atomic file writer.

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
