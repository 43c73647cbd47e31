import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcmc
from pcmc import cli, ctmc, data, evaluate, luce, model, param
from pcmc.base import LOG_FLOOR, probabilities_many
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import (
    EmptyDataset,
    InfeasibleStart,
    InvalidK,
    MultipleClosedClasses,
    NegativeAlpha,
    OptimizerFailure,
    SingularSystem,
)
from pcmc.luce import MnlModel
from pcmc.model import (
    FitConfig,
    PcmcModel,
    finite_difference_gradient,
    fit,
    log_likelihood,
    smoothed_log_likelihood,
)

from _support import (
    SPAN_320_RATES,
    BatchedChain,
    central_gradient,
    cyclic_matrix,
    cyclic_rates,
    exact_adjoint_gradient,
    exact_stationary,
    random_canonical,
    random_terms,
)

# hand-computed: 3*log(0.75) + log(0.25)
LOGLIK_3TO1 = -2.249340578475233
# hand-computed: 3*log(1/3)
LOGLIK_UNIFORM_TRIPLE = -3.295836866004329


def pair_dataset(wins0, wins1):
    rows = [(0, (0, 1))] * wins0 + [(1, (0, 1))] * wins1
    return ChoiceDataset(n=2, observations=tuple(rows))


class TestPcmcModel:
    def test_requires_canonical(self):
        with pytest.raises(ValueError):
            PcmcModel(q=RateMatrix(n=2, rates=[[0.0, 0.2], [0.2, 0.0]]))

    def test_cyclic_pair_probability(self):
        # with q_ij + q_ji = 1 the pair probability is the reverse rate
        alpha = 0.9
        m = PcmcModel(q=cyclic_matrix(alpha))
        assert m.probabilities((0, 1)).prob(0) == pytest.approx(alpha,
                                                                abs=1e-12)

    def test_btl_pair_probability(self):
        m = PcmcModel(q=param.q_from_btl(np.array([2.0, 1.0])))
        assert np.allclose(m.probabilities((0, 1)).mass,
                           [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_raw_array_becomes_a_rate_matrix(self):
        rates = cyclic_rates(0.9)
        rates[0, 0] = 5.0  # the diagonal is not data
        m = PcmcModel(q=rates)
        assert isinstance(m.q, RateMatrix) and m.n == 3
        assert np.array_equal(m.q.rates, cyclic_matrix(0.9).rates)

    def test_singleton(self):
        m = PcmcModel(q=cyclic_matrix(0.7))
        d = m.probabilities((1,))
        assert d.support == (1,)
        assert d.mass[0] == 1.0


class TestLogLikelihood:
    def test_three_to_one(self):
        m = PcmcModel(q=param.q_from_btl(np.array([3.0, 1.0])))
        assert log_likelihood(m, pair_dataset(3, 1)) \
            == pytest.approx(LOGLIK_3TO1, abs=1e-12)

    def test_certain_choices_give_zero(self):
        rates = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = PcmcModel(q=RateMatrix(n=2, rates=rates))
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)),) * 4)
        assert log_likelihood(m, ds) == 0.0

    def test_cyclic_triple(self):
        m = PcmcModel(q=cyclic_matrix(0.9))
        rows = [(0, (0, 1, 2)), (1, (0, 1, 2)), (2, (0, 1, 2))]
        ds = ChoiceDataset(n=3, observations=tuple(rows))
        assert log_likelihood(m, ds) \
            == pytest.approx(LOGLIK_UNIFORM_TRIPLE, abs=1e-12)

    def test_empty_dataset(self):
        m = PcmcModel(q=cyclic_matrix(0.5))
        with pytest.raises(EmptyDataset):
            log_likelihood(m, ChoiceDataset(n=3, observations=()))

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_per_observation_loop(self, seed):
        # mixed set sizes, so the grouped sum runs over several groups
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        m = PcmcModel(q=RateMatrix(n=n, rates=random_canonical(rng, n)))
        menus = [tuple(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                  replace=False).tolist()) for _ in range(6)]
        ds = data.sample(m, menus, count=100, seed=seed)
        want = sum(np.log(m.probabilities(s).prob(c))
                   for c, s in ds.observations)
        assert log_likelihood(m, ds) == pytest.approx(want, rel=1e-12)

    def test_zero_probability_floored(self):
        # an impossible observed choice yields a huge negative value,
        # not -inf or an exception
        rates = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = PcmcModel(q=RateMatrix(n=2, rates=rates))
        ds = ChoiceDataset(n=2, observations=((1, (0, 1)),))
        value = log_likelihood(m, ds)
        assert np.isfinite(value)
        assert value <= np.log(1e-12) + 1e-9

    def test_smoothed_matches_manual(self):
        q = cyclic_matrix(0.7)
        ds = ChoiceDataset(n=3, observations=((0, (0, 1)), (0, (0, 1)),
                                              (1, (0, 1))))
        alpha = 0.5
        m = PcmcModel(q=q)
        p0 = m.probabilities((0, 1)).prob(0)
        expected = (2 + alpha) * np.log(p0) + (1 + alpha) * np.log(1 - p0)
        assert smoothed_log_likelihood(q, ds, alpha) \
            == pytest.approx(expected, abs=1e-12)

    def test_smoothed_rejects_negative_alpha(self):
        ds = ChoiceDataset(n=3, observations=((0, (0, 1)), (1, (0, 1, 2))))
        with pytest.raises(NegativeAlpha):
            smoothed_log_likelihood(cyclic_matrix(0.7), ds, -0.5)

    def test_smoothed_raises_the_failing_sets_error(self):
        # one closed class in the universe, two in the menu {0, 1}
        q = RateMatrix(n=3, rates=[[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        ds = ChoiceDataset(n=3, observations=((0, (0, 1)), (2, (0, 1, 2))))
        with pytest.raises(MultipleClosedClasses) as err:
            smoothed_log_likelihood(q, ds, 0.1)
        assert err.value.classes == [(0,), (1,)]
        ds = ChoiceDataset(n=4, observations=((0, (0, 1, 2, 3)),))
        with pytest.raises(SingularSystem):
            smoothed_log_likelihood(RateMatrix(n=4, rates=SPAN_320_RATES), ds, 0.1)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_iters=0)
        with pytest.raises(NegativeAlpha):
            FitConfig(smoothing_alpha=-0.1)

    @pytest.mark.parametrize("max_iters", [2.5, 2.0, "3"])
    def test_iteration_cap_rejected_not_truncated(self, max_iters):
        # 2.5 was once accepted, and L-BFGS-B then ran 3 iterations
        with pytest.raises(InvalidK, match="max_iters must be an integer"):
            FitConfig(max_iters=max_iters)

    def test_numpy_integer_iteration_cap_read_as_int(self):
        assert type(FitConfig(max_iters=np.int64(5)).max_iters) is int

    @pytest.mark.parametrize("field", ["max_iters", "smoothing_alpha", "seed"])
    def test_fields_cannot_be_reassigned(self, field):
        # reassigning a field once bypassed every check above
        cfg = FitConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, 0)
        assert cfg == FitConfig()

    def test_no_init_field(self):
        # fit's start= is the one way to choose a starting point
        assert "init" not in {f.name for f in dataclasses.fields(FitConfig)}


@pytest.mark.parametrize("name", ["choice_probabilities", "mnl_probabilities",
                                  "mmnl_probabilities"])
def test_probabilities_is_the_one_per_set_entry(name):
    # each of these once named a model class's probabilities method
    assert name not in pcmc.__all__
    assert not any(hasattr(m, name) for m in (pcmc, model, luce))


class TestGradient:
    def test_matches_centered_oracle(self):
        # forward differences at step h vs centered differences at h/2
        rng = np.random.default_rng(17)
        ds = data.sample(PcmcModel(q=cyclic_matrix(0.65)),
                         [(0, 1), (0, 2), (1, 2), (0, 1, 2)],
                         count=400, seed=18)

        def objective(x):
            rates = np.zeros((3, 3))
            rates[~np.eye(3, dtype=bool)] = x
            return smoothed_log_likelihood(RateMatrix(n=3, rates=rates), ds,
                                           0.1)

        step = 1e-6
        for _ in range(20):
            x = random_canonical(rng, 3)[~np.eye(3, dtype=bool)]
            grad = finite_difference_gradient(objective, x, step)
            for k in range(len(x)):
                hi = x.copy()
                lo = x.copy()
                hi[k] += step / 2
                lo[k] -= step / 2
                centered = (objective(hi) - objective(lo)) / step
                denom = max(1.0, abs(centered))
                assert abs(grad[k] - centered) / denom <= 1e-3


class TestAdjointGradient:
    """loglik_and_grad against oracles that share none of its code."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        sizes = [2, 4] + rng.integers(2, n + 1, size=3).tolist()
        rates = random_canonical(rng, n) * rng.uniform(0.5, 3.0)
        return model._SetObjective(random_terms(rng, n, sizes)), rates

    @given(st.integers(0, 2 ** 31 - 1))
    @example(seed=4550625)
    def test_matches_central_differences(self, seed):
        obj, rates = self._problem(seed)
        value, grad = obj.loglik_and_grad(rates)
        assert value == obj.loglik(rates)
        # steps relative to each rate: curvature grows like 1 / q_ij^2.
        # The objective's round-off, divided by the step, swamps the
        # difference of a rate far below its row's outflow (q_30 = 7.9e-8
        # on the example), so no step is below 1e-7 of the outflow unless
        # that would pass half the rate. The diagonal is ignored by the
        # objective, so any step works there
        outflow = rates.sum(axis=1, keepdims=True)
        steps = np.minimum(rates / 2, 1e-4 * np.maximum(rates, 1e-3 * outflow))
        steps = np.where(np.eye(len(rates), dtype=bool), 1.0, steps)
        oracle = central_gradient(obj.loglik, rates, steps)
        assert np.abs(grad - oracle).max() \
            <= 1e-6 * max(1.0, np.abs(oracle).max())

    @given(st.integers(0, 2 ** 31 - 1))
    def test_euler_identity(self, seed):
        # L(cQ) = L(Q) for every c > 0, so sum_ij q_ij dL/dq_ij = 0
        obj, rates = self._problem(seed)
        terms = rates * obj.loglik_and_grad(rates)[1]
        assert abs(terms.sum()) <= 1e-9 * max(1.0, np.abs(terms).sum())

    @given(st.integers(0, 2 ** 31 - 1))
    def test_diagonal_is_ignored(self, seed):
        # the embedding fitter passes rates with a diagonal of one half
        obj, rates = self._problem(seed)
        noisy = rates + np.diag(np.random.default_rng(seed).uniform(0, 5, len(rates)))
        value, grad = obj.loglik_and_grad(rates)
        noisy_value, noisy_grad = obj.loglik_and_grad(noisy)
        assert noisy_value == value
        assert np.array_equal(noisy_grad, grad)

    def test_batches_mixing_reducible_sets(self):
        # no rate above TOL_EDGE leaves {3, 4, 5}, so each set meeting
        # both halves keeps its members above 2 as its closed class, after
        # its transient members; sets inside one half are irreducible
        rng = np.random.default_rng(5)
        rates = random_canonical(rng, 6) * rng.uniform(0.5, 3.0)
        rates[3:, :3] = ctmc.TOL_EDGE * rng.uniform(0.0, 1.0, (3, 3))
        sets = {2: [(0, 1), (1, 4), (3, 5), (2, 3)],
                3: [(0, 1, 2), (0, 3, 5), (3, 4, 5), (2, 4, 5)],
                4: [(1, 2, 3, 4), (0, 1, 3, 5), (0, 1, 2, 4)]}
        groups = [(np.array(rows), rng.uniform(0.1, 20.0, (len(rows), size)))
                  for size, rows in sets.items()]
        value, grad = model._SetObjective(groups).loglik_and_grad(rates)
        want_value, want_grad = 0.0, np.zeros((6, 6))
        for idx, w in groups:
            pi = ctmc._stationary_rows(rates, idx)[0]
            for row, (members, weights) in enumerate(zip(idx, w)):
                alone = ctmc._stationary_rows(rates, idx[row:row + 1])[0][0]
                assert np.array_equal(pi[row], alone)
                exact = exact_stationary(rates, members)
                if members.min() < 3 <= members.max():
                    assert np.all(pi[row][members < 3] == 0.0)
                    assert np.all(exact[members < 3] == 0.0)
                assert np.abs(pi[row] - exact).sum() <= 1e-12
                want_value += float((weights * np.log(np.maximum(exact, LOG_FLOOR))).sum())
                want_grad[np.ix_(members, members)] += exact_adjoint_gradient(
                    rates, members, weights)
        assert value == pytest.approx(want_value, rel=1e-14)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

    @staticmethod
    def _penalized(obj, rates):
        """_minimand over the full rate matrix: (value, gradient)."""
        return model._minimand(obj, lambda x: (x, lambda g: g))(rates)

    def test_no_unique_distribution_gives_zero_gradient(self):
        obj = model._SetObjective([(np.arange(3)[None], np.ones((1, 3)))])
        with pytest.raises(MultipleClosedClasses):
            obj.loglik_and_grad(np.zeros((3, 3)))
        value, grad = self._penalized(obj, np.zeros((3, 3)))
        assert value == model._PENALTY
        assert np.array_equal(grad, np.zeros((3, 3)))

    def test_reducible_set_matches_exact_adjoint(self):
        # state 0 absorbs; leaving it, the chain takes about 1e18 to
        # come back, so pi_0 falls steeply in q_01 and q_02
        rates = np.array([[0.0, 0.0, 0.0],
                          [0.0, 0.0, 5.275191856212761e-09],
                          [1.6129467427002697e-05, 74419.03582858907, 0.0]])
        w = np.array([2.7, 2.5, 1.4])
        obj = model._SetObjective([(np.arange(3)[None], w[None])])
        grad = obj.loglik_and_grad(rates)[1]
        exact = exact_adjoint_gradient(rates, range(3), w)
        assert exact[0, 1:] == pytest.approx([-2.3615e18] * 2, rel=1e-4)
        assert np.abs(grad - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_singular_adjoint_gets_the_penalty(self):
        # q_10 + q_12 rounds to q_10, so the first two columns of A^T
        # cancel exactly in double precision
        rates = np.zeros((3, 3))
        rates[0, 1] = 71675452435.26448
        rates[1, 0] = 787803001329.0995
        rates[1, 2] = 4.628048777288063e-05
        obj = model._SetObjective([(np.arange(3)[None], np.ones((1, 3)))])
        with pytest.raises(np.linalg.LinAlgError):
            obj.loglik_and_grad(rates)
        # state 2 absorbs: two masses at the log floor
        assert obj.loglik(rates) == -55.262042231857095
        value, grad = self._penalized(obj, rates)
        assert value == model._PENALTY
        assert np.array_equal(grad, np.zeros((3, 3)))

    def test_fitters_never_use_finite_differences(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("finite differences in a fit path")

        calls = []

        def unconstrained(minimize):
            def spy(fun, x0, **kwargs):
                calls.append(kwargs)
                assert kwargs.get("constraints") is None
                assert kwargs.get("callback") is None
                assert kwargs["jac"] is True
                return minimize(fun, x0, **kwargs)
            return spy

        monkeypatch.setattr(model, "finite_difference_gradient", forbidden)
        for module in (model, param):
            monkeypatch.setattr(module, "minimize",
                                unconstrained(module.minimize))
        ds = data.sample(PcmcModel(q=cyclic_matrix(0.7)),
                         [(0, 1), (1, 2), (0, 1, 2)], count=300, seed=3)
        fit(ds, FitConfig(max_iters=5))
        param.fit_bladechest(ds, d=1, cfg=FitConfig(max_iters=5))
        assert [c["method"] for c in calls] == ["L-BFGS-B", "L-BFGS-B"]


def _spy_minimize(monkeypatch):
    """Record the objective and start model.fit hands to minimize."""
    seen = {}
    real = model.minimize

    def spy(fun, x0, **kwargs):
        seen["fun"], seen["x0"] = fun, x0
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(model, "minimize", spy)
    return seen


class TestScaleInvariance:
    """Choice probabilities do not change under Q -> cQ; fit relies on
    this when it rescales its result to a canonical matrix."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        sets = [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist()))
                for k in rng.integers(2, n + 1, size=4)]
        return q, sets

    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3))
    def test_stationary_many(self, seed, c):
        q, sets = self._problem(seed)
        scaled = RateMatrix(n=q.n, rates=c * q.rates)
        for p, p_scaled in zip(probabilities_many(BatchedChain(q), sets),
                               probabilities_many(BatchedChain(scaled), sets)):
            assert np.abs(p - p_scaled).max() <= 1e-9

    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3))
    def test_smoothed_log_likelihood(self, seed, c):
        q, sets = self._problem(seed)
        ds = data.sample(PcmcModel(q=q), sets, count=200, seed=seed)
        scaled = RateMatrix(n=q.n, rates=c * q.rates)
        value = smoothed_log_likelihood(q, ds, 0.1)
        assert smoothed_log_likelihood(scaled, ds, 0.1) \
            == pytest.approx(value, rel=1e-9)


class TestFit:
    def test_symmetric_pair(self):
        report = fit(pair_dataset(500, 500))
        p0 = report.params.probabilities((0, 1)).prob(0)
        assert p0 == pytest.approx(0.5, abs=0.01)
        assert report.constraint_violation <= 1e-6

    def test_recovers_cyclic_generator(self):
        gen = PcmcModel(q=cyclic_matrix(0.7))
        sets = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
        ds = data.sample(gen, sets, count=50_000, seed=1)
        report = fit(ds)
        for s in sets:
            gap = np.abs(report.params.probabilities(s).mass
                         - gen.probabilities(s).mass)
            assert gap.sum() <= 0.02

    def test_recovers_btl_generator(self):
        gen = PcmcModel(q=param.q_from_btl(np.array([0.6, 0.3, 0.1])))
        ds = data.sample(gen, [(0, 1, 2)], count=50_000, seed=42)
        report = fit(ds)
        gap = np.abs(report.params.probabilities((0, 1, 2)).mass
                     - np.array([0.6, 0.3, 0.1]))
        assert gap.sum() <= 0.02

    def test_feasibility_and_monotonicity(self):
        gen = PcmcModel(q=cyclic_matrix(0.8))
        ds = data.sample(gen, [(0, 1), (1, 2), (0, 1, 2)], count=2_000,
                         seed=43)
        cfg = FitConfig(smoothing_alpha=0.1)
        report = fit(ds, cfg)
        assert report.constraint_violation <= 1e-6
        # objective at the fit must not be below the starting point's
        start = PcmcModel(q=RateMatrix(n=3, rates=np.full((3, 3), 0.5)
                                       * ~np.eye(3, dtype=bool)))
        from_start = fit(ds, cfg, start=start)
        start_value = smoothed_log_likelihood(start.q, ds, 0.1)
        assert from_start.loglik >= start_value - 1e-9
        assert report.loglik >= start_value - 1e-9

    def test_explicit_start(self):
        ds = pair_dataset(7, 3)
        start = PcmcModel(q=RateMatrix(n=2, rates=[[0.0, 0.5], [0.5, 0.0]]))
        report = fit(ds, start=start)
        assert report.params.probabilities((0, 1)).prob(0) \
            == pytest.approx(0.7, abs=0.05)

    def test_start_with_a_zero_rate(self):
        # canonical, with all mass on 0; a zero rate has no logarithm
        ds = pair_dataset(7, 3)
        start = PcmcModel(q=RateMatrix(n=2, rates=[[0.0, 0.0], [1.0, 0.0]]))
        report = fit(ds, start=start)
        assert report.params.probabilities((0, 1)).prob(0) \
            == pytest.approx(0.7, abs=0.05)

    def test_mismatched_start_rejected(self):
        ds = pair_dataset(2, 2)
        start = PcmcModel(q=cyclic_matrix(0.6))
        with pytest.raises(InfeasibleStart):
            fit(ds, start=start)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit(ChoiceDataset(n=2, observations=()))

    def test_unseen_alternatives_warned_and_padded(self):
        rows = [(0, (0, 1))] * 6 + [(1, (0, 1))] * 2
        ds = ChoiceDataset(n=4, observations=tuple(rows))
        with pytest.warns(UserWarning):
            report = fit(ds)
        q = report.params.q
        assert q.n == 4
        assert q.rates[2, 3] == 0.5 and q.rates[3, 2] == 0.5
        assert q.rates[0, 2] == 0.5
        assert report.params.probabilities((0, 1)).prob(0) \
            == pytest.approx(0.75, abs=0.05)

    def test_uninformed_pairs_stay_at_one_half(self, monkeypatch):
        # pairs (0, 2), (0, 3), (0, 4), (1, 4) and (2, 4) are never
        # offered together
        gen = PcmcModel(q=RateMatrix(n=5, rates=random_canonical(
            np.random.default_rng(8), 5)))
        ds = data.sample(gen, [(0, 1), (1, 2, 3), (3, 4)], count=600, seed=9)
        informed = data.counts(ds).cooccurrence > 0
        uninformed = ~informed & ~np.eye(5, dtype=bool)
        assert uninformed.sum() == 10
        start_rates = random_canonical(np.random.default_rng(10), 5) * 2.0
        seen = _spy_minimize(monkeypatch)
        report = fit(ds, start=PcmcModel(q=RateMatrix(n=5, rates=start_rates)))
        assert np.array_equal(seen["x0"], np.log(start_rates[informed]))
        rates = report.params.q.rates
        assert np.all(rates[uninformed] == 0.5)
        assert report.loglik == smoothed_log_likelihood(report.params.q, ds, 0.1)
        perturbed = rates.copy()
        perturbed[uninformed] = np.random.default_rng(11).uniform(
            0.5, 5.0, size=10)
        assert smoothed_log_likelihood(RateMatrix(n=5, rates=perturbed), ds,
                                       0.1) == report.loglik

    def test_criterion_9_data_converges(self, tmp_path):
        # the criterion 9 pipeline's data and fit settings
        path = str(tmp_path / "train.txt")
        assert cli.main(["synth", "--regime", "randq", "--n", "5",
                         "--samples", "2000", "--seed", "11",
                         "--out", path]) == 0
        report = fit(data.load(path), FitConfig(seed=4))
        assert report.converged
        # the constrained fit's value on this data, reached at max_iters
        assert report.loglik >= -2035.32381

    def test_overflowing_rates_get_the_penalty(self, monkeypatch):
        ds = data.sample(PcmcModel(q=cyclic_matrix(0.7)),
                         [(0, 1), (1, 2), (0, 1, 2)], count=300, seed=3)
        seen = _spy_minimize(monkeypatch)
        fit(ds, FitConfig(max_iters=2))
        fun, x0 = seen["fun"], seen["x0"]
        one = x0.copy()
        one[0] = 1000.0
        for x in (np.full_like(x0, 1000.0), one):
            value, grad = fun(x)
            assert value == model._PENALTY
            assert np.array_equal(grad, np.zeros_like(x0))

    def test_overflowing_row_sums_get_the_penalty(self, monkeypatch):
        # exp(709.5) is finite, but two of them in a row overflow its sum
        ds = data.sample(PcmcModel(q=cyclic_matrix(0.7)),
                         [(0, 1), (1, 2), (0, 1, 2)], count=300, seed=3)
        seen = _spy_minimize(monkeypatch)
        fit(ds, FitConfig(max_iters=2))
        fun, x0 = seen["fun"], seen["x0"]

        def forbidden(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(ctmc, "_generators", forbidden)
        value, grad = fun(np.full_like(x0, 709.5))
        assert value == model._PENALTY
        assert np.array_equal(grad, np.zeros_like(x0))

    @pytest.mark.parametrize("fitter", [
        lambda ds: fit(ds, FitConfig(max_iters=3)),
        lambda ds: param.fit_bladechest(ds, d=1, cfg=FitConfig(max_iters=3))])
    def test_no_finite_point_raises_optimizer_failure(self, monkeypatch, fitter):
        # every stationary solve fails, so every point scores _PENALTY and
        # the final point has no likelihood either
        def singular(*args):
            raise SingularSystem("stationary masses are not finite")

        monkeypatch.setattr(ctmc, "_stationary_rows", singular)
        with pytest.raises(OptimizerFailure):
            fitter(pair_dataset(3, 1))

    def test_separable_data_without_smoothing(self):
        # 0 always beats 1 and 2, 1 always beats 2: the likelihood grows
        # without bound as the losing rates go to zero
        rows = [(0, (0, 1))] * 20 + [(1, (1, 2))] * 20 + [(0, (0, 2))] * 20 \
            + [(0, (0, 1, 2))] * 20
        ds = ChoiceDataset(n=3, observations=tuple(rows))
        report = fit(ds, FitConfig(smoothing_alpha=0.0))
        q = report.params.q
        assert np.isfinite(q.rates).all()
        assert q.is_canonical
        assert np.isfinite(report.loglik)
        assert report.loglik == smoothed_log_likelihood(q, ds, 0.0)
        assert report.params.probabilities((0, 1, 2)).prob(0) >= 0.99

    def test_empirical_start_matches_pairwise_loop(self):
        gen = PcmcModel(q=RateMatrix(n=4, rates=random_canonical(
            np.random.default_rng(12), 4)))
        ds = data.sample(gen, [(0, 1), (1, 2), (0, 1, 2), (0, 2, 3)],
                         count=500, seed=13)
        tables = data.counts(ds)
        rates = model._empirical_pairs_start(4, data._set_terms(ds))
        wins = np.zeros((4, 4))
        for s, per_item in tables.choice_counts.items():
            for i in s:
                for j in s:
                    if i != j:
                        wins[i, j] += per_item[i]
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                if i != j:
                    expected[j, i] = (wins[i, j] + 1.0) \
                        / (wins[i, j] + wins[j, i] + 2.0)
        assert np.array_equal(rates, expected)

    def test_report_shape(self):
        report = fit(pair_dataset(5, 5))
        assert isinstance(report.params, PcmcModel)
        assert np.isfinite(report.loglik)
        assert report.iterations >= 0
        assert isinstance(report.converged, bool)


class TestFitAtExtremeRates:
    """The fit path from starts whose rates sit near TOL_EDGE or near 1e8
    ends in a finite canonical matrix, or in OptimizerFailure when every
    point it reaches scores _PENALTY; never in an uncaught error."""

    @settings(max_examples=10)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["edge", "large"]))
    def test_ends_finite_and_canonical(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = 6
        gen = PcmcModel(q=RateMatrix(n=n, rates=random_canonical(rng, n)))
        menus = sorted({tuple(sorted(rng.choice(n, size=int(rng.integers(2, 5)),
                                                replace=False).tolist()))
                        for _ in range(10)})
        ds = data.sample(gen, menus, count=400, seed=seed)
        rates = random_canonical(rng, n)
        if scale == "edge":
            for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.4)):
                if i != j:
                    rates[i, j] = ctmc.TOL_EDGE * rng.uniform(0.1, 10.0)
                    rates[j, i] = max(rates[j, i], 1.0)
        else:
            rates *= 1e8 * rng.uniform(0.5, 2.0)
        start = PcmcModel(q=RateMatrix(n=n, rates=rates))
        try:
            report = fit(ds, FitConfig(max_iters=200), start=start)
        except OptimizerFailure:
            return
        q = report.params.q
        assert np.isfinite(q.rates).all() and q.is_canonical
        assert np.isfinite(report.loglik)


class TestPermutationEquivariance:
    """Relabelling the alternatives by a permutation sigma (i -> sigma[i])
    permutes what is indexed by alternative and leaves every total
    unchanged up to rounding. It also reorders the sorted sets and the
    size groups of the layout, so these run the grouped code paths on a
    different arrangement of the same data."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        rates = random_canonical(rng, n) * rng.uniform(1.0, 3.0)
        menus = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                         replace=False).tolist()))
                 for _ in range(int(rng.integers(2, 8)))]
        menus.append(tuple(range(n)))  # smoothing then connects every pair
        ds = data.sample(PcmcModel(q=RateMatrix(n=n, rates=rates)), menus,
                         count=int(rng.integers(20, 300)), seed=seed)
        sigma = rng.permutation(n)
        moved = np.zeros((n, n))
        moved[np.ix_(sigma, sigma)] = rates
        relabelled = ChoiceDataset(n=n, observations=tuple(
            (int(sigma[c]), tuple(int(sigma[i]) for i in s))
            for c, s in ds.observations))
        return sigma, (RateMatrix(n=n, rates=rates), ds), \
            (RateMatrix(n=n, rates=moved), relabelled)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_alternative_indexed_results_permute(self, seed):
        sigma, (q, ds), (q2, ds2) = self._problem(seed)
        sets = ds.distinct_sets
        moved_sets = [tuple(sorted(int(sigma[i]) for i in s)) for s in sets]
        for s, t, p, p2 in zip(sets, moved_sets,
                               probabilities_many(BatchedChain(q), sets),
                               probabilities_many(BatchedChain(q2), moved_sets)):
            by_item = dict(zip(t, p2))
            assert np.allclose([by_item[sigma[i]] for i in s], p,
                               rtol=0, atol=1e-12)

        value, grad = model._SetObjective(
            data._smoothed(data._set_terms(ds), 0.1)).loglik_and_grad(q.rates)
        value2, grad2 = model._SetObjective(
            data._smoothed(data._set_terms(ds2), 0.1)).loglik_and_grad(q2.rates)
        assert value2 == pytest.approx(value, rel=1e-12)
        assert np.abs(grad2[np.ix_(sigma, sigma)] - grad).max() \
            <= 1e-9 * max(1.0, np.abs(grad).max())

        t, t2 = data.counts(ds), data.counts(ds2)
        assert np.array_equal(t2.cooccurrence[np.ix_(sigma, sigma)],
                              t.cooccurrence)
        assert t2.set_size_histogram == t.set_size_histogram
        for s, t_s in zip(sets, moved_sets):
            assert t2.set_counts[t_s] == t.set_counts[s]
            assert {int(sigma[i]): c for i, c in t.choice_counts[s].items()} \
                == t2.choice_counts[t_s]

    @given(st.integers(0, 2 ** 31 - 1))
    def test_totals_do_not_change(self, seed):
        sigma, (q, ds), (q2, ds2) = self._problem(seed)
        assert smoothed_log_likelihood(q2, ds2, 0.1) \
            == pytest.approx(smoothed_log_likelihood(q, ds, 0.1), rel=1e-12)
        m, m2 = PcmcModel(q=q), PcmcModel(q=q2)
        assert log_likelihood(m2, ds2) \
            == pytest.approx(log_likelihood(m, ds), rel=1e-12)
        err, err2 = evaluate.prediction_error(m, ds), \
            evaluate.prediction_error(m2, ds2)
        assert err2.error == pytest.approx(err.error, rel=1e-9, abs=1e-12)
        for s, e in err.per_set_errors.items():
            moved = tuple(sorted(int(sigma[i]) for i in s))
            assert err2.per_set_errors[moved] == pytest.approx(e, rel=1e-9,
                                                               abs=1e-12)
        # the fixed point stops once a step is below 1e-9 in L1, so the
        # two fits may stop one step apart
        gamma = luce.fit_mnl(ds, alpha=0.1).gamma
        gamma2 = luce.fit_mnl(ds2, alpha=0.1).gamma
        assert np.abs(gamma2[sigma] - gamma).sum() <= 1e-8
