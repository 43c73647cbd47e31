import dataclasses
import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pcmc import ctmc, data, luce, model, param
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import InvalidK, InvalidPairwise, NonpositiveGamma
from pcmc.luce import MnlModel
from pcmc.model import PcmcModel
from pcmc.param import (
    BladeChest,
    PairwiseMatrix,
    fit_bladechest,
    q_from_btl,
    q_from_pairwise,
)

from _support import central_gradient, cyclic_rates, random_terms


class TestQFromBtl:
    def test_symmetric(self):
        q = q_from_btl(np.array([1.0, 1.0]))
        assert q.rates[0, 1] == 0.5 and q.rates[1, 0] == 0.5

    def test_two_to_one(self):
        q = q_from_btl(np.array([2.0, 1.0]))
        assert q.rates[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert q.rates[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_triple_stationary_matches_gamma(self):
        q = q_from_btl(np.array([0.6, 0.3, 0.1]))
        pi = ctmc.stationary(ctmc.restrict(q, (0, 1, 2)))
        assert np.abs(pi.mass - [0.6, 0.3, 0.1]).max() <= 1e-12

    def test_exactly_canonical(self):
        q = q_from_btl(np.array([5.0, 0.2, 1.7, 0.9]))
        sums = q.rates + q.rates.T
        off = ~np.eye(4, dtype=bool)
        assert np.abs(sums[off] - 1.0).max() == 0.0

    def test_nonpositive_gamma(self):
        with pytest.raises(NonpositiveGamma):
            q_from_btl(np.array([1.0, 0.0]))
        with pytest.raises(NonpositiveGamma):
            q_from_btl(np.array([1.0, -0.5]))

    @given(st.integers(0, 2 ** 31 - 1))
    def test_bridge_equals_mnl_everywhere(self, seed):
        # stationary distributions of the induced chain reproduce the
        # quality-proportional probabilities on every menu
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gamma = rng.uniform(0.05, 3.0, size=n)
        q = q_from_btl(gamma)
        mnl = MnlModel(gamma=gamma)
        for size in range(2, n + 1):
            for s in itertools.combinations(range(n), size):
                pi = ctmc.stationary(ctmc.restrict(q, s))
                assert np.abs(pi.mass - mnl.probabilities(s).mass).max() \
                    <= 1e-9

    def test_mnl_to_pcmc_wrapper(self):
        m = PcmcModel(q=q_from_btl(MnlModel(gamma=np.array([0.6, 0.3, 0.1])).gamma))
        assert isinstance(m, PcmcModel)
        assert np.abs(m.probabilities((0, 1, 2)).mass
                      - [0.6, 0.3, 0.1]).max() <= 1e-12


class TestPairwiseMatrix:
    def test_validation(self):
        good = np.array([[0.0, 0.7], [0.3, 0.0]])
        PairwiseMatrix(n=2, p=good)
        with pytest.raises(InvalidPairwise):
            PairwiseMatrix(n=2, p=np.array([[0.0, 0.7], [0.4, 0.0]]))
        with pytest.raises(InvalidPairwise):
            PairwiseMatrix(n=2, p=np.array([[0.0, 1.2], [-0.2, 0.0]]))

    @pytest.mark.parametrize("p, match", [
        (np.zeros((3, 3)), "must be 2 x 2"),
        (np.zeros(4), "must be 2 x 2"),
        ([[0.0, np.nan], [np.nan, 0.0]], "entries must be finite"),
        ([[0.0, np.inf], [-np.inf, 0.0]], "entries must be finite"),
        ([[np.nan, 0.7], [0.3, 0.0]], "entries must be finite"),
    ])
    def test_shape_and_finite_rejected(self, p, match):
        with pytest.raises(InvalidPairwise, match=match):
            PairwiseMatrix(n=2, p=p)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_universe_size_rejected_not_truncated(self, n):
        # n=2.0 once raised a bare TypeError from np.eye
        with pytest.raises(InvalidK, match="universe size must be an integer"):
            PairwiseMatrix(n=n, p=[[0.0, 0.7], [0.3, 0.0]])

    def test_numpy_integer_universe_size_read_as_int(self):
        pm = PairwiseMatrix(n=np.int64(2), p=[[0.0, 0.7], [0.3, 0.0]])
        assert type(pm.n) is int and pm.n == 2

    def test_certain_outcomes_allowed(self):
        PairwiseMatrix(n=2, p=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cyclic_pairwise_gives_cyclic_rates(self):
        alpha = 0.9
        p = np.zeros((3, 3))
        # item i beats its next neighbor with probability alpha
        for i in range(3):
            j = (i + 1) % 3
            p[i, j] = alpha
            p[j, i] = 1 - alpha
        q = q_from_pairwise(PairwiseMatrix(n=3, p=p))
        assert np.allclose(q.rates, cyclic_rates(alpha), atol=1e-15)

    def test_uniform(self):
        p = np.full((3, 3), 0.5)
        np.fill_diagonal(p, 0.0)
        q = q_from_pairwise(PairwiseMatrix(n=3, p=p))
        off = ~np.eye(3, dtype=bool)
        assert np.all(q.rates[off] == 0.5)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_pair_recovery(self, seed):
        # restriction to any pair has stationary (p_ij, p_ji)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        p = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.uniform(0.01, 0.99)
                p[i, j] = v
                p[j, i] = 1 - v
        q = q_from_pairwise(PairwiseMatrix(n=n, p=p))
        for i in range(n):
            for j in range(i + 1, n):
                pi = ctmc.stationary(ctmc.restrict(q, (i, j)))
                assert pi.prob(i) == pytest.approx(p[i, j], abs=1e-12)


class TestBladeChest:
    def test_inner_orthogonal_pair(self):
        bc = BladeChest(n=2, d=2,
                        blades=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        chests=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        variant="inner")
        assert bc.pairwise().p[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_identical_embeddings_are_even(self):
        pts = np.array([[0.3, -1.2], [2.0, 0.4], [-0.7, 0.9]])
        bc = BladeChest(n=3, d=2, blades=pts, chests=pts, variant="distance")
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert bc.pairwise().p[i, j] \
                        == pytest.approx(0.5, abs=1e-15)

    def test_circle_construction_is_cyclic(self):
        # blades at 0/120/240 degrees, chests rotated +90 degrees
        angles = np.deg2rad([0.0, 120.0, 240.0])
        blades = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rot = angles + np.pi / 2
        chests = np.stack([np.cos(rot), np.sin(rot)], axis=1)
        bc = BladeChest(n=3, d=2, blades=blades, chests=chests,
                        variant="distance")
        p01 = bc.pairwise().p[0, 1]
        p12 = bc.pairwise().p[1, 2]
        p20 = bc.pairwise().p[2, 0]
        assert p01 > 0.5 and p12 > 0.5 and p20 > 0.5
        assert p01 == pytest.approx(p12, abs=1e-12)
        assert p12 == pytest.approx(p20, abs=1e-12)

    def test_same_item_rejected(self):
        bc = data.gen_bladechest_circle(3, seed=0)
        with pytest.raises(ValueError, match="duplicate alternative"):
            bc.probabilities((1, 1))

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["distance", "inner"]))
    def test_antisymmetry(self, seed, variant):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        bc = BladeChest(n=n, d=d,
                        blades=rng.standard_normal((n, d)),
                        chests=rng.standard_normal((n, d)),
                        variant=variant)
        for i in range(n):
            for j in range(i + 1, n):
                s = bc.pairwise().p[i, j] + bc.pairwise().p[j, i]
                assert s == pytest.approx(1.0, abs=1e-12)

    def test_logistic_lower_tail_is_accurate(self):
        # matchup score of 0 over 1 is b0 . c1 - b1 . c0 = -40
        bc = BladeChest(n=2, d=1, blades=[[-40.0], [0.0]], chests=[[0.0], [1.0]],
                        variant="inner")
        assert bc.pairwise().p[0, 1] == pytest.approx(
            math.exp(-40.0) / (1.0 + math.exp(-40.0)), rel=1e-12, abs=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            BladeChest(n=2, d=1, blades=[[0.0], [1.0]], chests=[[1.0], [0.0]],
                       variant="cosine")
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)), (1, (0, 1))))
        with pytest.raises(ValueError, match="variant"):
            fit_bladechest(ds, d=1, variant="cosine")

    @pytest.mark.parametrize("n, d, blades, chests, error, match", [
        (1, 1, [[0.0]], [[1.0]], InvalidK, "universe size must be >= 2, got 1"),
        (2, 0, np.zeros((2, 0)), np.zeros((2, 0)), InvalidK,
         "embedding dimension must be >= 1, got 0"),
        (2, 1, [[0.0], [1.0], [2.0]], [[1.0], [0.0]], ValueError, "both be n x d"),
        (2, 1, [[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]], ValueError, "both be n x d"),
        (2, 1, [[np.nan], [1.0]], [[1.0], [0.0]], ValueError, "must be finite"),
        (2, 1, [[0.0], [1.0]], [[np.inf], [0.0]], ValueError, "must be finite"),
        (2, 2.0, np.zeros((2, 2)), np.zeros((2, 2)), InvalidK,
         "embedding dimension must be an integer"),
        (2.0, 1, [[0.0], [1.0]], [[1.0], [0.0]], InvalidK, "universe size must be an integer"),
    ])
    def test_construction_rejections(self, n, d, blades, chests, error, match):
        with pytest.raises(error, match=match):
            BladeChest(n=n, d=d, blades=blades, chests=chests)

    def test_to_pcmc_pair_consistency(self):
        bc = data.gen_bladechest_circle(4, seed=5)
        m = bc.to_pcmc()
        for i in range(4):
            for j in range(i + 1, 4):
                direct = bc.pairwise().p[i, j]
                assert m.probabilities((i, j)).prob(i) \
                    == pytest.approx(direct, abs=1e-12)

    def test_probabilities_protocol(self):
        bc = data.gen_bladechest_circle(4, seed=6)
        d = bc.probabilities((0, 2, 3))
        assert d.support == (0, 2, 3)
        assert abs(d.mass.sum() - 1.0) <= 1e-10


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # the exception type is the outcome
        return ("raises", type(exc))


class TestBladeChestChainCache:
    def test_probabilities_bit_identical_to_fresh_chain(self):
        bc = data.gen_bladechest_circle(5, seed=8)
        fresh = PcmcModel(q=q_from_pairwise(bc.pairwise()))
        for s in [(0, 1), (1, 3, 4), (0, 1, 2, 3, 4)]:
            assert np.array_equal(bc.probabilities(s).mass,
                                  fresh.probabilities(s).mass)
            assert np.array_equal(bc.probabilities(s).mass,
                                  bc.to_pcmc().probabilities(s).mass)

    def test_chain_built_once(self):
        bc = data.gen_bladechest_circle(4, seed=9)
        assert bc.to_pcmc() is bc.to_pcmc()

    def test_equality_and_hashing_unchanged(self):
        bc = data.gen_bladechest_circle(4, seed=10)
        twin = BladeChest(n=bc.n, d=bc.d, blades=bc.blades,
                          chests=bc.chests, variant=bc.variant)
        checks = (lambda: bc == bc, lambda: bc == twin,
                  lambda: hash(bc), lambda: repr(bc))
        before = [_outcome(c) for c in checks]
        bc.probabilities((0, 1, 2))
        assert [_outcome(c) for c in checks] == before
        assert [f.name for f in dataclasses.fields(bc)] \
            == ["n", "d", "blades", "chests", "variant"]


# scores at zero, in the body, where 1 + exp(40) rounds, and at both
# ends of exp's range
_LOGISTIC_GRID = [s * v for v in (1e-300, 1.0, 20.0, 40.0, 700.0, 709.0) for s in (1.0, -1.0)]


def _relative_error(got, x):
    """|got - logistic(x)| / logistic(x), against a 50-digit logistic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = 1 / (1 + (-decimal.Decimal(x)).exp())
        return float(abs(decimal.Decimal(got) - exact) / exact)


class TestLogistic:
    def test_within_two_ulp_of_scipy_error_on_the_grid(self):
        from scipy.special import expit as reference
        x = np.array(_LOGISTIC_GRID)
        eps = np.finfo(float).eps
        for xi, got, ref in zip(x.tolist(), param.expit(x).tolist(), reference(x).tolist()):
            assert _relative_error(got, xi) <= _relative_error(ref, xi) + 2 * eps, xi
            assert param.expit(xi) == got  # a scalar score gets the array's value

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert param.expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
            assert param.expit(-1000.0) == 0.0 and param.expit(1000.0) == 1.0

    def test_within_two_ulp_of_scipy_on_a_sample(self):
        from scipy.special import expit as reference
        x = np.random.default_rng(23).standard_normal(100_000) * 10.0
        ref = reference(x)
        assert (np.abs(param.expit(x) - ref) <= 2 * np.spacing(ref)).all()


class TestEmbeddingGradient:
    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["distance", "inner"]))
    # a pair's win probability there is about 1e-8: the logistic must
    # stay accurate relative to its size in the lower tail
    @example(seed=26789, variant="distance")
    def test_matches_central_differences(self, seed, variant):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        sizes = [2, 3] + rng.integers(2, n + 1, size=2).tolist()
        obj = model._SetObjective(random_terms(rng, n, sizes))

        def build(x):
            return BladeChest(n=n, d=d, blades=x[:n * d].reshape(n, d),
                              chests=x[n * d:].reshape(n, d),
                              variant=variant)

        # the fitter's objective: minus the log-likelihood and its
        # gradient pulled back through param._embedding_rates
        fun = model._minimand(obj, lambda x: param._embedding_rates(build(x)))

        def loss(x):
            return fun(x, False)[0]

        x = rng.standard_normal(2 * n * d) / np.sqrt(d)
        value, grad = fun(x)
        assert value == loss(x) == -obj.loglik(param._embedding_rates(build(x))[0])
        oracle = central_gradient(loss, x, 1e-4)
        assert np.abs(grad - oracle).max() \
            <= 1e-6 * max(1.0, np.abs(oracle).max())


class TestFitBladeChest:
    def test_recovers_cyclic_pairwise(self):
        gen = PcmcModel(q=RateMatrix(n=3, rates=cyclic_rates(0.7)))
        pairs = [(0, 1), (0, 2), (1, 2)]
        ds = data.sample(gen, pairs, count=12_000, seed=7)
        bc = fit_bladechest(ds, d=2)
        m = bc.to_pcmc()
        for a, b in pairs:
            gap = np.abs(m.probabilities((a, b)).mass
                         - gen.probabilities((a, b)).mass)
            assert gap.max() <= 0.05

    def test_recovers_btl_triple(self):
        gen = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        ds = data.sample(gen, [(0, 1, 2)], count=5_000, seed=11)
        bc = fit_bladechest(ds, d=2)
        emp = np.zeros(3)
        for c, _ in ds.observations:
            emp[c] += 1
        emp /= emp.sum()
        gap = np.abs(bc.to_pcmc().probabilities((0, 1, 2)).mass - emp)
        assert gap.sum() <= 0.05

    def test_symmetric_pair(self):
        rows = [(0, (0, 1))] * 500 + [(1, (0, 1))] * 500
        ds = ChoiceDataset(n=2, observations=tuple(rows))
        bc = fit_bladechest(ds, d=2)
        assert bc.to_pcmc().probabilities((0, 1)).prob(0) \
            == pytest.approx(0.5, abs=0.02)

    def test_dimension_validated(self):
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)), (1, (0, 1))))
        with pytest.raises(Exception):
            fit_bladechest(ds, d=0)

    @pytest.mark.parametrize("d", [1.7, 2.0, "2"])
    def test_dimension_rejected_not_truncated(self, d):
        # d=1.7 once fitted d=1, and d="2" was accepted
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)), (1, (0, 1))))
        with pytest.raises(InvalidK, match="embedding dimension must be an integer, got %r"
                           % (d,)):
            fit_bladechest(ds, d=d)

    def test_numpy_integer_dimension_accepted(self):
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)), (1, (0, 1))))
        bc = fit_bladechest(ds, d=np.int64(2), cfg=model.FitConfig(max_iters=5))
        assert bc.d == 2 and type(bc.d) is int
