import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmc import ctmc
from pcmc.axioms import Tournament, harary_moser_bound
from pcmc.base import probabilities_many
from pcmc.ctmc import Distribution, RateMatrix, RestrictedGenerator
from pcmc.data import gen_bladechest_circle, gen_mnl_simplex, gen_random_q
from pcmc.errors import (
    EmptySubset,
    IndexOutOfRange,
    InvalidK,
    MultipleClosedClasses,
    SingularSystem,
)
from pcmc.param import BladeChest, PairwiseMatrix

from _support import (
    CYCLE_300_RATES,
    DRAW_404_RATES,
    ORACLE_PI,
    ORACLE_RATES,
    RETRY_RATES,
    SINGULAR_RATES,
    SPAN_320_RATES,
    WRONG_RETRY_RATES,
    BatchedChain,
    cyclic_matrix,
    cyclic_rates,
    exact_closed_classes,
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

    def test_overflowing_pair_sum_is_canonical(self):
        # each row sum is finite, the pair sum is not; no warning
        q = RateMatrix(n=2, rates=[[0, 1e308], [1e308, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.is_canonical
            assert q.pair_sum_violation() == 0.0

    def test_immutable(self):
        q = cyclic_matrix(0.9)
        with pytest.raises(ValueError):
            q.rates[0, 1] = 2.0

    @pytest.mark.parametrize("n, rates, match", [
        (2, np.ones((2, 3)), "must be a square matrix"),
        (2, np.ones(4), "must be a square matrix"),
        (3, np.ones((2, 2)), "rates are 2x2 but n=3"),
        (0, np.zeros((0, 0)), "universe size must be >= 1, got 0"),
        (2.0, np.ones((2, 2)), "universe size must be an integer, got 2.0"),
        (2.5, np.ones((2, 2)), "universe size must be an integer, got 2.5"),
        ("2", np.ones((2, 2)), "universe size must be an integer"),
    ])
    def test_shape_rejected(self, n, rates, match):
        with pytest.raises(ValueError, match=match):
            RateMatrix(n=n, rates=rates)

    def test_numpy_integer_universe_size_read_as_int(self):
        q = RateMatrix(n=np.int64(2), rates=np.ones((2, 2)))
        assert type(q.n) is int and q.n == 2


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

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(1.0), "1"])
    def test_non_integer_id_rejected_not_truncated(self, bad):
        # 1.7 once read as 1, so the restriction was to (0, 1)
        for solve in (lambda s: ctmc.restrict(cyclic_matrix(0.5), s),
                      lambda s: probabilities_many(BatchedChain(cyclic_matrix(0.5)), [s])):
            with pytest.raises(ValueError, match=re.escape(
                    "alternative %r is not an integer id" % (bad,))):
                solve((0, bad))

    def test_numpy_integer_ids_accepted(self):
        g = ctmc.restrict(cyclic_matrix(0.5), np.array([2, 0]))
        assert g.subset == (2, 0) and all(type(i) is int for i in g.subset)
        assert ctmc.restrict(cyclic_matrix(0.5), (np.int64(0), np.uint8(2))).subset == (0, 2)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            RestrictedGenerator(subset=(0, 1), matrix=np.array([[-1.0, 0.5],
                                                                [0.5, -0.5]]))

    @pytest.mark.parametrize("matrix, match", [
        (np.zeros((3, 3)), "does not match subset size 2"),
        (np.array([[-np.inf, np.inf], [0.5, -0.5]]), "entries must be finite"),
        (np.array([[-0.5, 0.5], [np.nan, 0.0]]), "entries must be finite"),
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), "entries must be nonnegative"),
    ])
    def test_generator_rejections(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            RestrictedGenerator(subset=(0, 1), matrix=matrix)

    def test_generator_float_subset_rejected_not_truncated(self):
        matrix = np.array([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError, match="alternative 1.5 is not an integer id"):
            RestrictedGenerator(subset=(0, 1.5), matrix=matrix)
        g = RestrictedGenerator(subset=np.array([2, 0]), matrix=matrix)
        assert g.subset == (2, 0) and all(type(i) is int for i in g.subset)


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

    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_reachability_oracle(self, seed):
        # sparse graphs, some rates at or just above TOL_EDGE, unsorted
        # subsets; the kernel's MultipleClosedClasses names the same classes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        rates = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
        faint = rng.random((n, n)) < 0.2
        rates[faint] = ctmc.TOL_EDGE * rng.choice([0.5, 1.0, 1.5], int(faint.sum()))
        np.fill_diagonal(rates, 0.0)
        q = RateMatrix(n=n, rates=rates)
        for _ in range(6):
            members = tuple(rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist())
            want = exact_closed_classes(rates, members)
            assert ctmc.closed_classes(ctmc.restrict(q, members)) == want
            if len(want) > 1:
                with pytest.raises(MultipleClosedClasses) as err:
                    ctmc.stationary(ctmc.restrict(q, members))
                assert err.value.classes == want
                with pytest.raises(MultipleClosedClasses) as err:
                    probabilities_many(BatchedChain(q), [members])
                assert err.value.classes == want


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
    """stationary and the kernel's batches through base.probabilities_many,
    one kernel on a stack of one and on a batch, on chains whose rates span many decades: both give the
    exact masses, bit for bit alike, with no least-squares second
    opinion, and SingularSystem only where double precision cannot hold
    the chain."""

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
        many = probabilities_many(BatchedChain(q), [range(n)])
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
            probabilities_many(BatchedChain(q), [(0, 1), range(4)])


def _sets_of(rng, n, count):
    """Sorted sets of mixed sizes from 1 to n, repeats allowed."""
    sizes = rng.integers(1, n + 1, size=count)
    return [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist()))
            for k in sizes]


def _per_set(q, sets):
    return [ctmc.stationary(ctmc.restrict(q, s)).mass for s in sets]


class TestStationaryMany:
    """The kernel's batches, reached through base.probabilities_many,
    against stationary, the same kernel on a stack of one, and against
    exact_stationary."""

    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_per_set_on_canonical(self, seed):
        # same systems, same arithmetic: the masses agree to the bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        sets = _sets_of(rng, n, 12)
        many = probabilities_many(BatchedChain(q), sets)
        assert len(many) == len(sets)
        for got, want in zip(many, _per_set(q, sets)):
            assert np.array_equal(got, want)
        for s, got in zip(sets, many):
            _assert_exact(q.rates, s, got)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_unsorted_members_keep_their_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        sets = [tuple(rng.permutation(s).tolist()) for s in _sets_of(rng, n, 6)]
        for got, want in zip(probabilities_many(BatchedChain(q), sets), _per_set(q, sets)):
            assert np.abs(got - want).max() <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    def test_large_rates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        rates = random_canonical(rng, n)
        sets = _sets_of(rng, n, 8)
        big = RateMatrix(n=n, rates=1e8 * rng.uniform(0.5, 2.0) * rates)
        many = probabilities_many(BatchedChain(big), sets)
        for got, want in zip(many, _per_set(big, sets)):
            assert np.array_equal(got, want)
        # both paths share one solve, so check it against the exact masses too
        for s, got in zip(sets, many):
            _assert_exact(big.rates, s, got)
        unit = probabilities_many(BatchedChain(RateMatrix(n=n, rates=rates)), sets)
        for got, want in zip(many, unit):
            assert np.abs(got - want).max() <= 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    def test_near_reducible(self, seed):
        # rates on either side of TOL_EDGE: one at or below it is no
        # edge, so it may make a set reducible; the kernel then drops the
        # ones leaving the closed class and keeps the others, as
        # exact_stationary does. Each is at most 10 TOL_EDGE against an
        # outflow of at least one half
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
        many = probabilities_many(BatchedChain(q), sets)
        for got, want in zip(many, _per_set(q, sets)):
            assert abs(got.sum() - 1.0) <= 1e-12 and got.min() >= 0.0
            assert np.abs(got - want).max() <= 20 * n * ctmc.TOL_EDGE
        for s, got in zip(sets, many):
            _assert_exact(rates, s, got)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_reducible_sets(self, seed):
        # the states of cls reach one another and leak out only below
        # TOL_EDGE; every other state reaches each of them, so a set
        # meeting cls has cls's members as its one closed class and gets
        # exactly zero on the rest, in any member order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        cls = rng.permutation(n)[:int(rng.integers(1, n))]
        inside = np.isin(np.arange(n), cls)
        rates = rng.uniform(0.1, 5.0, (n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
        rates *= (~inside[:, None] & (rng.random((n, n)) < 0.5)) | inside[None, :]
        leak = inside[:, None] & ~inside[None, :]
        rates[leak] = ctmc.TOL_EDGE * rng.uniform(0.0, 1.0, int(leak.sum()))
        np.fill_diagonal(rates, 0.0)
        q = RateMatrix(n=n, rates=rates)
        sets = [tuple(rng.permutation(s).tolist()) for s in _sets_of(rng, n, 10)
                if inside[list(s)].any()]
        many = probabilities_many(BatchedChain(q), sets)
        for s, got, want in zip(sets, many, _per_set(q, sets)):
            assert np.array_equal(got, want)
            _assert_exact(rates, s, got)
            assert np.all(got[~inside[list(s)]] == 0.0)

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
            probabilities_many(BatchedChain(q), [(0, 1), menu])

    def test_validates_every_set(self):
        q = cyclic_matrix(0.7)
        with pytest.raises(EmptySubset):
            probabilities_many(BatchedChain(q), [(0, 1), ()])
        with pytest.raises(IndexOutOfRange):
            probabilities_many(BatchedChain(q), [(0, 3)])
        assert probabilities_many(BatchedChain(q), []) == []


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution(support=(0, 1), mass=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            Distribution(support=(0, 1), mass=np.array([-0.1, 1.1]))
        for mass in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(ValueError):
                Distribution(support=(0, 1), mass=np.array(mass))

    @pytest.mark.parametrize("support, mass, match", [
        ((0, 1, 2), [0.5, 0.5], "length must match support length"),
        ((0, 1), [[0.5, 0.5]], "length must match support length"),
        ((1, 1), [0.5, 0.5], "must not repeat"),
    ])
    def test_shape_and_support_rejected(self, support, mass, match):
        with pytest.raises(ValueError, match=match):
            Distribution(support=support, mass=np.array(mass))

    def test_prob_and_as_dict(self):
        d = Distribution(support=(3, 5), mass=np.array([0.25, 0.75]))
        assert d.prob(5) == 0.75
        assert d.as_dict() == {3: 0.25, 5: 0.75}
        assert d.prob(4) == 0.0

    def test_float_ids_rejected_not_truncated(self):
        # support (3.7, 5) was once read as (3, 5), and prob(5.2) as prob(5)
        with pytest.raises(ValueError, match="alternative 3.7 is not an integer id"):
            Distribution(support=(3.7, 5), mass=np.array([0.25, 0.75]))
        d = Distribution(support=np.array([3, 5]), mass=np.array([0.25, 0.75]))
        assert d.support == (3, 5) and all(type(i) is int for i in d.support)
        assert d.prob(np.int64(5)) == 0.75
        with pytest.raises(ValueError, match="alternative 5.2 is not an integer id"):
            d.prob(5.2)


class TestSizeFloor:
    """Every size and integer seed is read by ctmc._size: below its floor
    each raises InvalidK naming the size, its floor and the value."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: RateMatrix(n=0, rates=np.zeros((0, 0))),
                     "universe size must be >= 1, got 0", id="RateMatrix"),
        pytest.param(lambda: PairwiseMatrix(n=-1, p=np.zeros((0, 0))),
                     "universe size must be >= 0, got -1", id="PairwiseMatrix"),
        pytest.param(lambda: BladeChest(n=1, d=1, blades=[[0.0]], chests=[[1.0]]),
                     "universe size must be >= 2, got 1", id="BladeChest.n"),
        pytest.param(lambda: BladeChest(n=2, d=0, blades=np.zeros((2, 0)),
                                        chests=np.zeros((2, 0))),
                     "embedding dimension must be >= 1, got 0", id="BladeChest.d"),
        pytest.param(lambda: Tournament(n=-1, beats=(), ties=()),
                     "universe size must be >= 0, got -1", id="Tournament"),
        pytest.param(lambda: harary_moser_bound(-1),
                     "player count must be >= 0, got -1", id="harary_moser_bound"),
        pytest.param(lambda: gen_random_q(1, 0),
                     "universe size must be >= 2, got 1", id="gen_random_q"),
        pytest.param(lambda: gen_mnl_simplex(1, 0),
                     "universe size must be >= 2, got 1", id="gen_mnl_simplex"),
        pytest.param(lambda: gen_bladechest_circle(1, 0),
                     "universe size must be >= 2, got 1", id="gen_bladechest_circle"),
        pytest.param(lambda: gen_random_q(3, -1),
                     "seed must be >= 0, got -1", id="seed"),
    ])
    def test_below_floor(self, make, message):
        with pytest.raises(InvalidK, match="^%s$" % re.escape(message)):
            make()

    @pytest.mark.parametrize("least", [0, 1, 2])
    def test_floor_itself_accepted(self, least):
        assert ctmc._size(np.int64(least), "size", least) == least
        assert type(ctmc._size(np.int64(least), "size", least)) is int
