"""The batched probabilities contract: every package family answers an
(m, s) array of equal-size sets through base.probabilities_rows, its
per-set probabilities is that batch on a stack of one, and only a
third-party model without a batched method is asked set by set."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmc import base, data, evaluate, model, serialize
from pcmc.axioms import run_audit
from pcmc.cli import main
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import EmptySubset, IndexOutOfRange
from pcmc.luce import MmnlModel, MnlModel
from pcmc.model import PcmcModel
from pcmc.param import BladeChest

from _support import random_canonical

KINDS = ("pcmc", "bladechest", "mnl", "mmnl1", "mmnl2")


def _family(kind, rng, n):
    if kind == "pcmc":
        return PcmcModel(q=RateMatrix(n=n, rates=random_canonical(rng, n)))
    if kind == "bladechest":
        return data.gen_bladechest_circle(n, int(rng.integers(2 ** 31)))
    if kind == "mnl":
        return MnlModel(gamma=rng.uniform(0.1, 2.0, size=n))
    k = int(kind[-1])
    return MmnlModel(weights=rng.dirichlet(np.ones(k)), components=tuple(
        MnlModel(gamma=rng.uniform(0.1, 2.0, size=n)) for _ in range(k)))


class _PerSetOnly:
    """A third-party model: n and probabilities, no batched method."""

    def __init__(self, inner):
        self.n, self._inner = inner.n, inner

    def probabilities(self, subset):
        return self._inner.probabilities(subset)


class TestBatchMatchesPerSet:
    @pytest.mark.parametrize("kind", KINDS)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_masses_bit_for_bit(self, kind, seed):
        # mixed sizes from 1 to n, members in any order, repeats allowed
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        fam = _family(kind, rng, n)
        sets = [tuple(rng.permutation(n)[:int(k)].tolist())
                for k in rng.integers(1, n + 1, size=12)]
        many = base.probabilities_many(fam, sets)
        assert len(many) == len(sets)
        for s, got in zip(sets, many):
            assert np.array_equal(got, fam.probabilities(s).mass)
        third_party = _PerSetOnly(fam)
        assert not hasattr(third_party, "probabilities_many")
        for got, want in zip(base.probabilities_many(third_party, sets), many):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_keep_the_batch_shape(self, kind):
        fam = _family(kind, np.random.default_rng(3), 5)
        idx = np.array([[4, 0, 2], [1, 3, 0]])
        got = base.probabilities_rows(fam, idx)
        assert got.shape == (2, 3)
        for row, s in zip(got, idx.tolist()):
            assert np.array_equal(row, fam.probabilities(s).mass)
        assert base.probabilities_rows(fam, np.zeros((0, 3), int)).shape == (0, 3)


class TestBatchIsChecked:
    @pytest.mark.parametrize("kind", KINDS)
    def test_ids_outside_the_universe(self, kind):
        fam = _family(kind, np.random.default_rng(4), 3)
        for idx in ([[0, -1]], [[-2, 1], [0, 1]], [[0, 3]], [[0, 1], [2, 3]]):
            with pytest.raises(IndexOutOfRange):
                base.probabilities_rows(fam, np.array(idx))
            with pytest.raises(IndexOutOfRange):
                base.probabilities_many(fam, [tuple(s) for s in idx])
        with pytest.raises(IndexOutOfRange, match=r"alternative -1 outside \[0, 3\)"):
            base.probabilities_rows(fam, np.array([[0, -1]]))
        with pytest.raises(IndexOutOfRange, match=r"alternative 3 outside \[0, 3\)"):
            base.probabilities_rows(fam, np.array([[0, 3]]))

    def test_malformed_batches(self):
        fam = MnlModel(gamma=np.ones(3))
        with pytest.raises(ValueError, match="duplicate alternative 1"):
            base.probabilities_rows(fam, np.array([[0, 2], [1, 1]]))
        with pytest.raises(ValueError, match="integer array"):
            base.probabilities_rows(fam, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="integer array"):
            base.probabilities_rows(fam, np.array([0, 1]))
        with pytest.raises(EmptySubset):
            base.probabilities_rows(fam, np.zeros((1, 0), int))

    @pytest.mark.parametrize("kind", KINDS)
    def test_data_naming_an_alternative_beyond_the_model(self, kind, tmp_path):
        fam = _family(kind, np.random.default_rng(5), 3)
        wide = ChoiceDataset(n=4, observations=((0, (0, 1)), (3, (1, 3)), (2, (0, 2, 3))))
        with pytest.raises(IndexOutOfRange, match=r"alternative 3 outside \[0, 3\)"):
            evaluate.prediction_error(fam, wide)
        with pytest.raises(IndexOutOfRange, match=r"alternative 3 outside \[0, 3\)"):
            model.log_likelihood(fam, wide)
        model_path, data_path = str(tmp_path / "m.json"), str(tmp_path / "d.txt")
        serialize.save_model(fam, model_path)
        data.save(wide, data_path)
        assert main(["eval", "--model-file", model_path, "--data", data_path,
                     "--out", str(tmp_path / "e.json")]) == 2
        assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_callers_never_ask_set_by_set(kind, monkeypatch):
    # a caller sliding back to one probabilities call per set fails here
    def forbidden(*args, **kwargs):
        raise AssertionError("per-set probabilities in a batched path")

    fam = _family(kind, np.random.default_rng(6), 5)
    for cls in (PcmcModel, BladeChest, MnlModel, MmnlModel):
        monkeypatch.setattr(cls, "probabilities", forbidden)
    with pytest.raises(AssertionError):
        fam.probabilities((0, 1))
    ds = data.sample(fam, [(0, 1), (1, 2, 4), (0, 2, 3, 4)], count=200, seed=6)
    assert 0.0 <= evaluate.prediction_error(fam, ds).error <= 2.0
    assert np.isfinite(model.log_likelihood(fam, ds))
    assert run_audit(fam)["n"] == 5
