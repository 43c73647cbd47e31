import math

import numpy as np
import pytest

from pcmc import data, evaluate
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import EmptyDataset, InvalidK, UnseenSet
from pcmc.evaluate import (
    ErrorReport,
    FitSpec,
    empirical_distribution,
    learning_curve,
    prediction_error,
)
from pcmc.luce import MnlModel
from pcmc.model import FitConfig, PcmcModel
from pcmc.param import BladeChest, PairwiseMatrix, q_from_pairwise

from _support import cyclic_rates


def pair_dataset(wins0, wins1):
    rows = [(0, (0, 1))] * wins0 + [(1, (0, 1))] * wins1
    return ChoiceDataset(n=2, observations=tuple(rows))


class TestEmpiricalDistribution:
    def test_even_split(self):
        d = empirical_distribution(pair_dataset(1, 1), (0, 1))
        assert np.allclose(d.mass, [0.5, 0.5])

    def test_three_to_one(self):
        d = empirical_distribution(pair_dataset(3, 1), (0, 1))
        assert np.allclose(d.mass, [0.75, 0.25])

    def test_single_observation_one_hot(self):
        d = empirical_distribution(pair_dataset(1, 0), (0, 1))
        assert np.allclose(d.mass, [1.0, 0.0])

    def test_unseen_set(self):
        with pytest.raises(UnseenSet):
            empirical_distribution(pair_dataset(1, 1), (0, 2))

    def test_float_id_rejected_not_truncated(self):
        # (0, 1.9) was once read as the observed set (0, 1)
        with pytest.raises(ValueError, match="alternative 1.9 is not an integer id"):
            empirical_distribution(pair_dataset(3, 1), (0, 1.9))
        d = empirical_distribution(pair_dataset(3, 1), np.array([1, 0]))
        assert d.support == (0, 1) and np.allclose(d.mass, [0.75, 0.25])

    def test_reads_the_tally_not_count_tables(self, monkeypatch):
        ds = data.sample(MnlModel(gamma=np.array([0.4, 0.3, 0.2, 0.1])),
                         [(0, 1), (1, 2, 3), (0, 1, 2, 3)], count=200, seed=5)
        sets = [(0, 1), (3, 2, 1), (0, 1, 2, 3)]
        tables = data.counts(ds)
        want = [np.array([tables.choice_counts[tuple(sorted(s))][i] for i in sorted(s)],
                         dtype=float) for s in sets]

        def forbidden(*args):
            raise AssertionError("empirical_distribution built count tables")

        monkeypatch.setattr(data, "counts", forbidden)
        for s, counts in zip(sets, want):
            d = empirical_distribution(ds, s)
            assert d.support == tuple(sorted(s))
            assert np.array_equal(d.mass, counts / counts.sum())
        with pytest.raises(UnseenSet):
            empirical_distribution(ds, (0, 2))


class TestPredictionError:
    def test_exact_match_is_zero(self):
        test = pair_dataset(3, 1)
        m = MnlModel(gamma=np.array([0.75, 0.25]))
        assert prediction_error(m, test).error == pytest.approx(0.0,
                                                                abs=1e-12)

    def test_uniform_versus_unanimous(self):
        test = pair_dataset(4, 0)
        m = MnlModel(gamma=np.array([0.5, 0.5]))
        assert prediction_error(m, test).error == pytest.approx(1.0,
                                                                abs=1e-12)

    def test_point_nine_versus_three_quarters(self):
        test = pair_dataset(3, 1)
        p = np.array([[0.0, 0.9], [0.1, 0.0]])
        m = PcmcModel(q=q_from_pairwise(PairwiseMatrix(n=2, p=p)))
        assert prediction_error(m, test).error == pytest.approx(0.3,
                                                                abs=1e-12)

    def test_weighted_by_set_frequency(self):
        rows = [(0, (0, 1))] * 3 + [(1, (0, 1))] * 1 + [(0, (0, 2))] * 1
        test = ChoiceDataset(n=3, observations=tuple(rows))
        m = MnlModel(gamma=np.array([0.5, 0.25, 0.25]))
        report = prediction_error(m, test)
        # set {0,1}: model (2/3, 1/3) vs (3/4, 1/4): L1 = 1/6
        # set {0,2}: model (2/3, 1/3) vs (1, 0):   L1 = 2/3
        expect = (4 * (1.0 / 6.0) + 1 * (2.0 / 3.0)) / 5
        assert report.error == pytest.approx(expect, abs=1e-12)
        assert report.per_set_errors[(0, 1)] == pytest.approx(1.0 / 6.0,
                                                              abs=1e-12)
        assert report.n_test == 5

    def test_order_invariance(self):
        rows = [(0, (0, 1))] * 3 + [(1, (0, 1))] + [(2, (1, 2))] * 2
        base = ChoiceDataset(n=3, observations=tuple(rows))
        shuffled = ChoiceDataset(
            n=3, observations=tuple(reversed(base.observations)))
        m = MnlModel(gamma=np.array([0.4, 0.4, 0.2]))
        assert prediction_error(m, base).error \
            == prediction_error(m, shuffled).error

    def test_matches_per_set_loop(self):
        gen = MnlModel(gamma=np.array([0.4, 0.3, 0.2, 0.1]))
        menus = [(0, 1), (1, 3), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3)]
        test = data.sample(gen, menus, count=400, seed=4)
        m = MnlModel(gamma=np.array([0.1, 0.2, 0.3, 0.4]))
        want, total = {}, 0.0
        for s in menus:
            chosen = [c for c, t in test.observations if t == s]
            emp = np.array([chosen.count(i) for i in s]) / len(chosen)
            want[s] = float(np.abs(m.probabilities(s).mass - emp).sum())
            total += len(chosen) * want[s]
        report = prediction_error(m, test)
        assert report.per_set_errors == pytest.approx(want, rel=1e-12)
        assert report.error == pytest.approx(total / len(test), rel=1e-12)

    def test_bounded_by_two(self):
        rows = [(0, (0, 1))] * 10
        test = ChoiceDataset(n=2, observations=tuple(rows))
        p = np.array([[0.0, 1e-9], [1.0 - 1e-9, 0.0]])
        m = PcmcModel(q=q_from_pairwise(PairwiseMatrix(n=2, p=p)))
        report = prediction_error(m, test)
        assert report.error <= 2.0

    def test_empty_test_set(self):
        m = MnlModel(gamma=np.array([0.5, 0.5]))
        with pytest.raises(EmptyDataset):
            prediction_error(m, ChoiceDataset(n=2, observations=()))

    @pytest.mark.parametrize("error", [3.0, -0.1, math.nan])
    def test_report_outside_zero_two_rejected(self, error):
        with pytest.raises(ValueError, match="must lie in \\[0, 2\\]"):
            ErrorReport(error=error, per_set_errors={}, n_test=1)


class TestFitSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FitSpec(kind="nope")

    def test_defaults_are_the_fitters(self):
        spec, cfg = FitSpec(kind="pcmc"), FitConfig()
        assert (spec.alpha, spec.max_iters) == (cfg.smoothing_alpha, cfg.max_iters)
        assert spec.variant == BladeChest(n=2, d=1, blades=[[0.0], [1.0]],
                                          chests=[[1.0], [0.0]]).variant

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_mixture_size_rejected_not_truncated(self, k):
        # k=2.5 once fitted two components
        with pytest.raises(InvalidK, match="mixture size must be an integer"):
            FitSpec(kind="mmnl", k=k).fit(pair_dataset(3, 1))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(kind="mmnl", k=0), "mixture size must be >= 1, got 0"),
        (dict(kind="mmnl", k="2"), "mixture size must be an integer"),
        (dict(kind="bladechest", d=2.5), "embedding dimension must be an integer, got 2.5"),
        (dict(kind="bladechest", d=0), "embedding dimension must be >= 1, got 0"),
        (dict(kind="pcmc", d=2.0), "embedding dimension must be an integer, got 2.0"),
        (dict(kind="pcmc", max_iters=2.5), "max_iters must be an integer, got 2.5"),
        (dict(kind="bladechest", max_iters=0), "max_iters must be >= 1, got 0"),
    ])
    def test_sizes_rejected_at_construction(self, kwargs, match):
        # once accepted here, so a learning curve recorded every cell of
        # the spec as a fit failure instead of raising
        with pytest.raises(InvalidK, match=match):
            FitSpec(**kwargs)

    def test_unknown_variant_rejected_at_construction(self):
        # once accepted here: the first bladechest cell then raised a plain
        # ValueError, which aborted the whole learning curve
        with pytest.raises(ValueError, match="variant must be one of"):
            FitSpec(kind="bladechest", variant="x")

    def test_numpy_integer_sizes_accepted(self):
        spec = FitSpec(kind="mmnl", k=np.int64(2), d=np.uint8(3))
        assert spec.fit(pair_dataset(3, 1)).k == 2

    def test_fit_each_kind(self):
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1, 2), (0, 1)], count=800, seed=50)
        for kind in ("pcmc", "mnl", "mmnl", "bladechest"):
            fitted = FitSpec(kind=kind, max_iters=60).fit(ds, seed=0)
            mass = fitted.probabilities((0, 1, 2)).mass
            assert abs(mass.sum() - 1.0) <= 1e-9


class TestLearningCurve:
    def test_deterministic(self):
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1, 2), (0, 1), (1, 2)], count=400, seed=51)
        specs = [FitSpec(kind="mnl")]
        a = learning_curve(ds, specs, fractions=(0.5, 1.0), permutations=2,
                           seed=7)
        b = learning_curve(ds, specs, fractions=(0.5, 1.0), permutations=2,
                           seed=7)
        assert a.mean_errors == b.mean_errors
        assert a.std_errors == b.std_errors

    def test_luce_data_favors_luce_model(self):
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1), (0, 2), (1, 2), (0, 1, 2)],
                         count=3_000, seed=52)
        curve = learning_curve(
            ds, [FitSpec(kind="mnl"), FitSpec(kind="pcmc", max_iters=80)],
            fractions=(0.5, 1.0), permutations=2, seed=8)
        mnl_final = curve.mean_errors["mnl"][-1]
        pcmc_final = curve.mean_errors["pcmc"][-1]
        assert mnl_final <= pcmc_final + 0.02

    def test_cyclic_data_favors_rate_matrix(self):
        gen = PcmcModel(q=RateMatrix(n=3, rates=cyclic_rates(0.9)))
        ds = data.sample(gen, [(0, 1), (0, 2), (1, 2)], count=3_000, seed=53)
        curve = learning_curve(
            ds, [FitSpec(kind="mnl"), FitSpec(kind="pcmc", max_iters=80)],
            fractions=(1.0,), permutations=2, seed=9)
        assert curve.mean_errors["pcmc"][-1] < curve.mean_errors["mnl"][-1]

    def test_failures_recorded_not_fatal(self):
        # alpha=0 with an item that never wins leaves the Luce fit
        # unsolvable; the curve must carry on and flag the cell
        rows = [(0, (0, 1))] * 30 + [(0, (0, 2))] * 30
        ds = ChoiceDataset(n=3, observations=tuple(rows))
        curve = learning_curve(
            ds, [FitSpec(kind="mnl", alpha=0.0)],
            fractions=(1.0,), permutations=2, seed=10)
        assert len(curve.failures) == 2
        assert math.isnan(curve.mean_errors["mnl"][0])
        assert curve.cell_permutations["mnl"][0] == 0

    def test_validation(self):
        ds = pair_dataset(5, 5)
        with pytest.raises(ValueError):
            learning_curve(ds, [FitSpec(kind="mnl")], fractions=(),
                           permutations=1)
        for permutations in (0, -1, 2.5):
            with pytest.raises(InvalidK, match="permutation count"):
                learning_curve(ds, [FitSpec(kind="mnl")], fractions=(0.5,),
                               permutations=permutations)
        with pytest.raises(ValueError):
            learning_curve(ds, [FitSpec(kind="mnl"), FitSpec(kind="mnl")],
                           fractions=(0.5,), permutations=1)
