import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmc import ctmc
from pcmc.ctmc import Distribution, RateMatrix, RestrictedGenerator
from pcmc.errors import (
    EmptySubset,
    IndexOutOfRange,
    MultipleClosedClasses,
    SingularSystem,
)

from _support import (
    CYCLE_300_RATES,
    DRAW_404_RATES,
    ORACLE_PI,
    ORACLE_RATES,
    RETRY_RATES,
    SINGULAR_RATES,
    SPAN_320_RATES,
    WRONG_RETRY_RATES,
    cyclic_matrix,
    cyclic_rates,
    exact_stationary,
    random_canonical,
    simulate_stationary,
)


class TestRateMatrix:
    def test_diagonal_forced_to_zero(self):
        rates = np.ones((2, 2))
        q = RateMatrix(n=2, rates=rates)
        assert q.rates[0, 0] == 0.0 and q.rates[1, 1] == 0.0

    def test_negative_rate_rejected(self):
        rates = np.array([[0.0, -0.1], [1.2, 0.0]])
        with pytest.raises(ValueError):
            RateMatrix(n=2, rates=rates)

    def test_overflowing_row_sum_rejected(self):
        # each rate is finite, but each row sums past the largest float
        with pytest.raises(ValueError, match="row sums"):
            RateMatrix(n=3, rates=np.full((3, 3), 1e308))

    def test_canonical_flag(self):
        assert RateMatrix(n=2, rates=[[0, 0.5], [0.5, 0]]).is_canonical
        weak = RateMatrix(n=2, rates=[[0, 0.2], [0.2, 0]])
        assert not weak.is_canonical
        assert weak.pair_sum_violation() == pytest.approx(0.6)

    def test_immutable(self):
        q = cyclic_matrix(0.9)
        with pytest.raises(ValueError):
            q.rates[0, 1] = 2.0


class TestRestrict:
    def test_cyclic_pair(self):
        # restriction to {0, 1} of the alpha-cycle
        alpha = 0.9
        g = ctmc.restrict(cyclic_matrix(alpha), (0, 1))
        expect = np.array([[-(1 - alpha), 1 - alpha], [alpha, -alpha]])
        assert np.allclose(g.matrix, expect, atol=1e-15)

    def test_singleton(self):
        g = ctmc.restrict(cyclic_matrix(0.3), (1,))
        assert g.matrix.shape == (1, 1)
        assert g.matrix[0, 0] == 0.0

    def test_oracle_diagonal(self):
        g = ctmc.restrict(RateMatrix(n=3, rates=ORACLE_RATES), (0, 1, 2))
        assert np.allclose(np.diag(g.matrix), [-1.3, -1.3, -0.7], atol=1e-15)

    def test_row_sums_zero(self):
        g = ctmc.restrict(RateMatrix(n=3, rates=ORACLE_RATES), (0, 2))
        assert np.abs(g.matrix.sum(axis=1)).max() <= 1e-12

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            ctmc.restrict(cyclic_matrix(0.5), ())

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ctmc.restrict(cyclic_matrix(0.5), (0, 3))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ctmc.restrict(cyclic_matrix(0.5), (0, 0))

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            RestrictedGenerator(subset=(0, 1), matrix=np.array([[-1.0, 0.5],
                                                                [0.5, -0.5]]))


class TestClosedClasses:
    def test_cycle_is_one_class(self):
        g = ctmc.restrict(cyclic_matrix(0.9), (0, 1, 2))
        assert ctmc.closed_classes(g) == [(0, 1, 2)]

    def test_two_isolated_classes(self):
        # 0 drains into 1; 2 unreachable both ways: closed {1} and {2}
        rates = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        q = RateMatrix(n=3, rates=rates)
        g = ctmc.restrict(q, (0, 1, 2))
        assert ctmc.closed_classes(g) == [(1,), (2,)]

    def test_absorbing_state(self):
        rates = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = ctmc.restrict(RateMatrix(n=2, rates=rates), (0, 1))
        assert ctmc.closed_classes(g) == [(1,)]

    def test_random_canonical_always_single_class(self):
        # canonical pair sums guarantee a unique closed class on every menu
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            q = RateMatrix(n=n, rates=random_canonical(rng, n))
            for size in range(2, n + 1):
                members = tuple(sorted(rng.choice(n, size=size, replace=False)))
                g = ctmc.restrict(q, members)
                assert len(ctmc.closed_classes(g)) == 1


class TestStationary:
    def test_cycle_uniform_exact(self):
        for alpha in (0.1, 0.5, 0.9):
            pi = ctmc.stationary(ctmc.restrict(cyclic_matrix(alpha), (0, 1, 2)))
            assert np.abs(pi.mass - 1.0 / 3.0).max() <= 1e-12

    def test_symmetric_pair(self):
        q = RateMatrix(n=2, rates=[[0.0, 0.5], [0.5, 0.0]])
        pi = ctmc.stationary(ctmc.restrict(q, (0, 1)))
        assert np.allclose(pi.mass, [0.5, 0.5], atol=1e-14)

    def test_oracle_fixture(self):
        pi = ctmc.stationary(ctmc.restrict(RateMatrix(n=3, rates=ORACLE_RATES),
                                           (0, 1, 2)))
        assert np.abs(pi.mass - ORACLE_PI).max() <= 1e-12

    def test_transients_get_zero(self):
        rates = np.array([[0.0, 1.0], [0.0, 0.0]])
        pi = ctmc.stationary(ctmc.restrict(RateMatrix(n=2, rates=rates), (0, 1)))
        assert pi.mass[0] == 0.0
        assert pi.mass[1] == 1.0

    def test_multiple_closed_classes_raises(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = 1.0
        q = RateMatrix(n=3, rates=rates)
        with pytest.raises(MultipleClosedClasses) as err:
            ctmc.stationary(ctmc.restrict(q, (0, 1, 2)))
        assert err.value.classes == [(1,), (2,)]

    def test_singleton_is_forced(self):
        pi = ctmc.stationary(ctmc.restrict(cyclic_matrix(0.4), (2,)))
        assert pi.support == (2,)
        assert pi.mass[0] == 1.0

    def test_residual_and_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            q = RateMatrix(n=n, rates=random_canonical(rng, n))
            g = ctmc.restrict(q, range(n))
            pi = ctmc.stationary(g)
            assert np.abs(pi.mass @ g.matrix).max() <= 1e-9
            assert abs(pi.mass.sum() - 1.0) <= 1e-12
            assert pi.mass.min() >= 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 100.0))
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rates = random_canonical(rng, n)
        members = tuple(range(n))
        base = ctmc.stationary(ctmc.restrict(RateMatrix(n=n, rates=rates), members))
        scaled = ctmc.stationary(
            ctmc.restrict(RateMatrix(n=n, rates=c * rates), members))
        assert np.abs(base.mass - scaled.mass).max() <= 1e-9

    def test_agreement_with_simulation(self):
        # jump-chain Monte Carlo as a model-free oracle
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            rates = random_canonical(rng, 4)
            g = ctmc.restrict(RateMatrix(n=4, rates=rates), range(4))
            pi = ctmc.stationary(g)
            sim = simulate_stationary(g.matrix, steps=1_000_000, seed=seed + 100)
            tv = 0.5 * np.abs(pi.mass - sim).sum()
            assert tv <= 5e-3


def _assert_exact(rates, members, mass):
    """mass against exact_stationary: within 1e-12 L1, unit sum, no
    negative mass."""
    assert np.abs(mass - exact_stationary(rates, members)).sum() <= 1e-12
    assert abs(mass.sum() - 1.0) <= 1e-12
    assert mass.min() >= 0.0


class TestCarefulSolve:
    """The per-set solver and the batched kernel on chains whose rates
    span many decades: both give the exact masses, bit for bit alike,
    with no least-squares second opinion, and SingularSystem only where
    double precision cannot hold the chain."""

    @pytest.fixture()
    def lstsq_calls(self, monkeypatch):
        calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        return calls

    @staticmethod
    def _assert_both_exact(rates):
        n = len(rates)
        q = RateMatrix(n=n, rates=rates)
        pi = ctmc.stationary(ctmc.restrict(q, range(n)))
        _assert_exact(rates, range(n), pi.mass)
        many = ctmc.stationary_many(q, [range(n)])
        assert np.array_equal(many[0], pi.mass)

    def test_retry_is_accepted(self, lstsq_calls):
        g = ctmc.restrict(RateMatrix(n=4, rates=RETRY_RATES), range(4))
        a = g.matrix.T.copy()
        a[-1] = 1.0
        # a replaced-row solve puts mass below -1e-9 here
        assert np.linalg.solve(a, np.eye(4)[-1]).min() < -1e-9
        self._assert_both_exact(RETRY_RATES)
        assert not lstsq_calls

    def test_both_solves_fail(self, lstsq_calls):
        # a replaced-row solve fails its certificate here
        q = RateMatrix(n=4, rates=SINGULAR_RATES)
        assert ctmc.closed_classes(ctmc.restrict(q, range(4))) == [(0, 1, 2, 3)]
        self._assert_both_exact(SINGULAR_RATES)
        assert not lstsq_calls

    def test_uncertified_solve_is_refused(self):
        # least squares would return masses here that pass the residual
        # test yet lie at L1 1.0 from the exact ones
        exact = exact_stationary(WRONG_RETRY_RATES, range(4))
        assert exact[2] > 0.999
        self._assert_both_exact(WRONG_RETRY_RATES)

    def test_small_mass_is_accurate(self):
        # a replaced-row solve gives the last mass 5.1e-3 here, not 1.0e-5
        self._assert_both_exact(DRAW_404_RATES)
        pi = ctmc.stationary(ctmc.restrict(RateMatrix(n=3, rates=DRAW_404_RATES),
                                           range(3)))
        # each mass is accurate relative to its own size
        exact = exact_stationary(DRAW_404_RATES, range(3))
        assert np.abs(pi.mass / exact - 1.0).max() <= 1e-12

    def test_rates_spanning_300_decades(self):
        self._assert_both_exact(CYCLE_300_RATES)

    def test_rates_beyond_double_precision_raise(self):
        q = RateMatrix(n=4, rates=SPAN_320_RATES)
        with pytest.raises(SingularSystem) as err:
            ctmc.stationary(ctmc.restrict(q, range(4)))
        with pytest.raises(SingularSystem, match=str(err.value)):
            ctmc.stationary_many(q, [(0, 1), range(4)])


def _sets_of(rng, n, count):
    """Sorted sets of mixed sizes from 1 to n, repeats allowed."""
    sizes = rng.integers(1, n + 1, size=count)
    return [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist()))
            for k in sizes]


def _per_set(q, sets):
    return [ctmc.stationary(ctmc.restrict(q, s)).mass for s in sets]


class TestStationaryMany:
    """stationary_many against the per-set solver it batches."""

    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_per_set_on_canonical(self, seed):
        # same systems, same arithmetic: the masses agree to the bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        sets = _sets_of(rng, n, 12)
        many = ctmc.stationary_many(q, sets)
        assert len(many) == len(sets)
        for got, want in zip(many, _per_set(q, sets)):
            assert np.array_equal(got, want)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_unsorted_members_keep_their_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        sets = [tuple(rng.permutation(s).tolist()) for s in _sets_of(rng, n, 6)]
        for got, want in zip(ctmc.stationary_many(q, sets), _per_set(q, sets)):
            assert np.abs(got - want).max() <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    def test_large_rates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        rates = random_canonical(rng, n)
        sets = _sets_of(rng, n, 8)
        big = RateMatrix(n=n, rates=1e8 * rng.uniform(0.5, 2.0) * rates)
        many = ctmc.stationary_many(big, sets)
        for got, want in zip(many, _per_set(big, sets)):
            assert np.array_equal(got, want)
        # both paths share one solve, so check it against the exact masses too
        for s, got in zip(sets, many):
            _assert_exact(big.rates, s, got)
        unit = ctmc.stationary_many(RateMatrix(n=n, rates=rates), sets)
        for got, want in zip(many, unit):
            assert np.abs(got - want).max() <= 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    def test_near_reducible(self, seed):
        # rates on either side of TOL_EDGE: the per-set solver drops the
        # ones at or below it as edges, the batched solve keeps them, so
        # they may disagree by the mass such rates carry: each is at most
        # 10 TOL_EDGE against an outflow of at least one half
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        rates = random_canonical(rng, n)
        for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.4)):
            if i != j:
                rates[i, j] = ctmc.TOL_EDGE * rng.uniform(0.1, 10.0)
                rates[j, i] = max(rates[j, i], 1.0)
        q = RateMatrix(n=n, rates=rates)
        assert q.is_canonical
        sets = _sets_of(rng, n, 10)
        for got, want in zip(ctmc.stationary_many(q, sets), _per_set(q, sets)):
            assert abs(got.sum() - 1.0) <= 1e-12 and got.min() >= 0.0
            assert np.abs(got - want).max() <= 20 * n * ctmc.TOL_EDGE

    @given(st.integers(0, 2 ** 32 - 1))
    def test_two_closed_classes_raise_like_stationary(self, seed):
        # no rate at all between two groups: any menu meeting both has
        # two closed classes, whatever the batched solve returns for it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        cut = int(rng.integers(2, n - 1))
        rates = random_canonical(rng, n) * rng.uniform(0.3, 3.0)
        rates[:cut, cut:] = rates[cut:, :cut] = 0.0
        q = RateMatrix(n=n, rates=rates)
        left, right = np.arange(cut), np.arange(cut, n)
        menu = tuple(sorted(
            rng.choice(left, int(rng.integers(1, cut + 1)), replace=False).tolist()
            + rng.choice(right, int(rng.integers(1, n - cut + 1)),
                         replace=False).tolist()))
        with pytest.raises(MultipleClosedClasses):
            ctmc.stationary(ctmc.restrict(q, menu))
        with pytest.raises(MultipleClosedClasses):
            ctmc.stationary_many(q, [(0, 1), menu])

    def test_validates_every_set(self):
        q = cyclic_matrix(0.7)
        with pytest.raises(EmptySubset):
            ctmc.stationary_many(q, [(0, 1), ()])
        with pytest.raises(IndexOutOfRange):
            ctmc.stationary_many(q, [(0, 3)])
        assert ctmc.stationary_many(q, []) == []


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution(support=(0, 1), mass=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            Distribution(support=(0, 1), mass=np.array([-0.1, 1.1]))

    def test_prob_and_as_dict(self):
        d = Distribution(support=(3, 5), mass=np.array([0.25, 0.75]))
        assert d.prob(5) == 0.75
        assert d.as_dict() == {3: 0.25, 5: 0.75}
        assert d.prob(4) == 0.0
