import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcmc import axioms, ctmc, serialize
from pcmc.axioms import (
    Partition,
    RegularityViolation,
    Tournament,
    check_contractible,
    contraction_invariance,
    cyclic_triplets,
    expand_copies,
    harary_moser_bound,
    regularity_violations,
    run_audit,
    tournament_from_model,
    tournament_from_pairwise,
    verify_uniform_expansion,
)
from pcmc.ctmc import RateMatrix
from pcmc.data import gen_bladechest_circle, gen_random_q
from pcmc.errors import (
    BadNesting,
    IndexOutOfRange,
    InvalidK,
    InvalidPairwise,
    LambdaMismatch,
    NotContractible,
)
from pcmc.luce import MmnlModel, MnlModel
from pcmc.model import PcmcModel
from pcmc.param import q_from_btl

from _support import (
    QHAT_SHOP,
    QHAT_SHOP_CYCLES,
    QHAT_WORK,
    QHAT_WORK_CYCLES,
    all_nestings,
    brute_force_cycles,
    cyclic_matrix,
    pairwise_from_rates,
    random_canonical,
    random_contractible,
    reference_dumps,
)


class TestPartition:
    def test_valid(self):
        part = Partition(n=4, blocks=((0, 2), (1,), (3,)))
        assert part.k == 3

    def test_must_cover(self):
        with pytest.raises(ValueError):
            Partition(n=4, blocks=((0, 1), (2,)))

    def test_no_overlap(self):
        with pytest.raises(ValueError):
            Partition(n=3, blocks=((0, 1), (1, 2)))

    def test_no_empty_block(self):
        with pytest.raises(ValueError):
            Partition(n=2, blocks=((0, 1), ()))

    def test_float_id_rejected_not_truncated(self):
        # once read as ((0,), (1,))
        with pytest.raises(ValueError, match="alternative 0.9 is not an integer id"):
            Partition(n=2, blocks=((0.9,), (1.2,)))
        part = Partition(n=2, blocks=((np.int64(1),), (np.uint8(0),)))
        assert part.blocks == ((1,), (0,)) and type(part.blocks[0][0]) is int

    def test_non_integer_size_rejected(self):
        # n=2.0 once died in range()
        with pytest.raises(InvalidK, match="universe size must be an integer, got 2.0"):
            Partition(n=2.0, blocks=((0,), (1,)))
        assert type(Partition(n=np.int64(2), blocks=((0,), (1,))).n) is int


class TestCheckContractible:
    def test_singletons_always_contract(self):
        rng = np.random.default_rng(1)
        rates = random_canonical(rng, 4)
        q = RateMatrix(n=4, rates=rates)
        part = Partition(n=4, blocks=tuple((i,) for i in range(4)))
        summary = check_contractible(q, part)
        assert summary is not None
        full = ctmc.stationary(ctmc.restrict(q, range(4)))
        assert np.abs(summary.contracted_pi.mass - full.mass).max() <= 1e-12

    def test_copies_contract_to_original(self):
        rng = np.random.default_rng(2)
        q = RateMatrix(n=2, rates=random_canonical(rng, 2))
        big, part = expand_copies(q, k=2)
        summary = check_contractible(big, part)
        assert summary is not None
        original = ctmc.stationary(ctmc.restrict(q, (0, 1)))
        assert np.abs(summary.contracted_pi.mass - original.mass).max() <= 1e-9

    @pytest.mark.parametrize("lam", [np.zeros((2, 3)), np.zeros(4), np.zeros((3, 3))])
    def test_summary_lam_shape_rejected(self, lam):
        pi = ctmc.Distribution(support=(0, 1), mass=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="lam must be k x k"):
            axioms.ContractionSummary(lam=lam, block_sizes=(1, 2), contracted_pi=pi)

    @pytest.mark.parametrize("sizes, match", [
        ((1.7, 2.2), "block size must be an integer, got 1.7"),
        ((1, 2.0), "block size must be an integer, got 2.0"),
        ((1, "2"), "block size must be an integer"),
        ((0, 2), "block size must be >= 1, got 0"),
    ])
    def test_summary_block_sizes_rejected_not_truncated(self, sizes, match):
        # (1.7, 2.2) was once stored as (1, 2)
        pi = ctmc.Distribution(support=(0, 1), mass=np.array([0.5, 0.5]))
        with pytest.raises(InvalidK, match=match):
            axioms.ContractionSummary(lam=np.zeros((2, 2)), block_sizes=sizes,
                                      contracted_pi=pi)

    def test_summary_numpy_integer_block_sizes_read_as_int(self):
        pi = ctmc.Distribution(support=(0, 1), mass=np.array([0.5, 0.5]))
        s = axioms.ContractionSummary(lam=np.zeros((2, 2)),
                                      block_sizes=(np.int64(1), np.uint8(2)),
                                      contracted_pi=pi)
        assert s.block_sizes == (1, 2) and all(type(k) is int for k in s.block_sizes)

    def test_partition_of_another_universe_rejected(self):
        part = Partition(n=2, blocks=((0,), (1,)))
        with pytest.raises(ValueError, match="partition is over 2 alternatives, matrix over 3"):
            check_contractible(cyclic_matrix(0.5), part)

    def test_cyclic_split_not_contractible(self):
        part = Partition(n=3, blocks=((0,), (1, 2)))
        assert check_contractible(cyclic_matrix(0.9), part) is None
        # alpha = 0.5 makes both cross rates equal
        assert check_contractible(cyclic_matrix(0.5), part) is not None

    def test_block_masses_match_closed_form(self):
        # contracted chain must reproduce the full chain's block masses,
        # including the closed-form balance ratio for the first block
        rng = np.random.default_rng(3)
        for sizes in [(2, 2), (2, 3, 1), (3, 2, 2)]:
            rates, blocks, lam = random_contractible(rng, sizes)
            n = int(sum(sizes))
            q = RateMatrix(n=n, rates=rates)
            part = Partition(n=n, blocks=tuple(blocks))
            summary = check_contractible(q, part, tol=1e-9)
            assert summary is not None
            full = ctmc.stationary(ctmc.restrict(q, range(n)))
            block_mass = np.array([
                sum(full.prob(i) for i in b) for b in blocks
            ])
            assert np.abs(summary.contracted_pi.mass - block_mass).max() <= 1e-9
            k = len(sizes)
            num = sizes[0] * sum(block_mass[i] * lam[i, 0] for i in range(1, k))
            den = sum(sizes[i] * lam[0, i] for i in range(1, k))
            assert block_mass[0] == pytest.approx(num / den, abs=1e-9)


class TestContractionInvariance:
    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        rates1, blocks, lam = random_contractible(rng, (2, 2))
        rates2 = rates1.copy()
        # change only the within-block corners, keep cross-block rates
        rates2[0, 1], rates2[1, 0] = 0.9, 0.8
        rates2[2, 3], rates2[3, 2] = 0.7, 0.6
        return rates1, rates2, blocks

    def test_within_block_changes_do_not_matter(self):
        rates1, rates2, blocks = self._pair(4)
        part = Partition(n=4, blocks=tuple(blocks))
        assert contraction_invariance(
            RateMatrix(n=4, rates=rates1), RateMatrix(n=4, rates=rates2),
            part, tol=1e-9)

    def test_identity(self):
        rates1, _, blocks = self._pair(5)
        part = Partition(n=4, blocks=tuple(blocks))
        q = RateMatrix(n=4, rates=rates1)
        assert contraction_invariance(q, q, part, tol=1e-9)

    def test_doubled_within_rates(self):
        rates1, _, blocks = self._pair(6)
        rates2 = rates1.copy()
        for b in blocks:
            idx = np.array(b, dtype=int)
            rates2[np.ix_(idx, idx)] *= 2.0
            np.fill_diagonal(rates2[np.ix_(idx, idx)], 0.0)
        part = Partition(n=4, blocks=tuple(blocks))
        assert contraction_invariance(
            RateMatrix(n=4, rates=rates1), RateMatrix(n=4, rates=rates2),
            part, tol=1e-9)

    def test_not_contractible_raises(self):
        part = Partition(n=3, blocks=((0,), (1, 2)))
        with pytest.raises(NotContractible):
            contraction_invariance(cyclic_matrix(0.9), cyclic_matrix(0.9),
                                   part, tol=1e-9)

    def test_second_not_contractible_raises(self):
        # alpha = 0.5 contracts over this partition, alpha = 0.9 does not
        part = Partition(n=3, blocks=((0,), (1, 2)))
        with pytest.raises(NotContractible, match="second matrix"):
            contraction_invariance(cyclic_matrix(0.5), cyclic_matrix(0.9),
                                   part, tol=1e-9)

    def test_lambda_mismatch_raises(self):
        rng = np.random.default_rng(7)
        rates1, blocks, _ = random_contractible(rng, (2, 2))
        rates2 = rates1.copy()
        # scale the cross-block rates: still contractible, different lam
        rates2[:2, 2:] *= 1.5
        rates2[2:, :2] *= 1.5
        part = Partition(n=4, blocks=tuple(blocks))
        with pytest.raises(LambdaMismatch):
            contraction_invariance(
                RateMatrix(n=4, rates=rates1), RateMatrix(n=4, rates=rates2),
                part, tol=1e-9)

    def test_random_contractible_pairs_property(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(k))
            rates1, blocks, lam = random_contractible(rng, sizes)
            n = int(sum(sizes))
            rates2 = rates1.copy()
            for b in blocks:
                if len(b) < 2:
                    continue
                idx = np.array(b, dtype=int)
                fresh = random_canonical(rng, len(b))
                rates2[np.ix_(idx, idx)] = fresh
            part = Partition(n=n, blocks=tuple(blocks))
            assert contraction_invariance(
                RateMatrix(n=n, rates=rates1), RateMatrix(n=n, rates=rates2),
                part, tol=1e-8)


class TestExpandCopies:
    def test_k1_identity(self):
        q = cyclic_matrix(0.6)
        big, part = expand_copies(q, k=1)
        assert np.array_equal(big.rates, q.rates)
        assert part.blocks == ((0,), (1,), (2,))

    def test_cycle_k3_block_masses(self):
        big, part = expand_copies(cyclic_matrix(0.9), k=3)
        assert big.n == 9
        pi = ctmc.stationary(ctmc.restrict(big, range(9)))
        for b in part.blocks:
            mass = sum(pi.prob(i) for i in b)
            assert mass == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_within_rate_is_irrelevant(self):
        rng = np.random.default_rng(9)
        q = RateMatrix(n=4, rates=random_canonical(rng, 4))

        def block_masses(within):
            big, part = expand_copies(q, k=2, within_rate=within)
            pi = ctmc.stationary(ctmc.restrict(big, range(big.n)))
            return np.array([sum(pi.prob(i) for i in b) for b in part.blocks])

        assert np.abs(block_masses(0.5) - block_masses(5.0)).max() <= 1e-10

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            expand_copies(cyclic_matrix(0.5), k=0)

    @pytest.mark.parametrize("k", [2.9, 2.0, "2"])
    def test_size_rejected_not_truncated(self, k):
        # k=2.9 once built 2 copies, and k="2" was accepted
        with pytest.raises(InvalidK, match="copy count must be an integer, got %r" % (k,)):
            expand_copies(cyclic_matrix(0.5), k=k)

    def test_numpy_integer_size_accepted(self):
        big, part = expand_copies(cyclic_matrix(0.5), k=np.int64(2))
        assert big.n == 6 and part.k == 3

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("within", [np.nan, np.inf])
    def test_non_finite_within_rate_rejected(self, k, within):
        # at k=1 the rate lands only on the diagonal; it was once zeroed there
        with pytest.raises(ValueError, match="must be finite"):
            expand_copies(cyclic_matrix(0.5), k=k, within_rate=within)

    def test_low_within_rate_rejected(self):
        with pytest.raises(ValueError):
            expand_copies(cyclic_matrix(0.5), k=2, within_rate=0.3)


class TestUniformExpansion:
    def test_k1(self):
        assert verify_uniform_expansion(cyclic_matrix(0.8), k=1)

    def test_cycle_k5(self):
        assert verify_uniform_expansion(cyclic_matrix(0.9), k=5)

    def test_btl_k4(self):
        q = q_from_btl(np.array([0.6, 0.3, 0.1]))
        assert verify_uniform_expansion(q, k=4)
        big, part = expand_copies(q, k=4)
        pi = ctmc.stationary(ctmc.restrict(big, range(big.n)))
        grouped = [sum(pi.prob(i) for i in b) for b in part.blocks]
        assert np.abs(np.array(grouped) - [0.6, 0.3, 0.1]).max() <= 1e-9

    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_models_expand_uniformly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        q = RateMatrix(n=n, rates=random_canonical(rng, n))
        assert verify_uniform_expansion(q, k=k, tol=1e-8)


class TestRegularity:
    def test_cycle_alpha_09_violations(self):
        m = PcmcModel(q=cyclic_matrix(0.9))
        triple = (0, 1, 2)
        violations = regularity_violations(m, [((0, 1), triple)])
        assert len(violations) == 1
        v = violations[0]
        assert v.item == 1
        assert v.p_subset == pytest.approx(0.1, abs=1e-12)
        assert v.p_superset == pytest.approx(1.0 / 3.0, abs=1e-12)
        # every pair shows the same pattern: one item per pair is hurt
        all_pairs = [((0, 1), triple), ((0, 2), triple), ((1, 2), triple)]
        assert len(regularity_violations(m, all_pairs)) == 3

    def test_cycle_alpha_06_clean(self):
        m = PcmcModel(q=cyclic_matrix(0.6))
        triple = (0, 1, 2)
        nestings = [((0, 1), triple), ((0, 2), triple), ((1, 2), triple)]
        assert regularity_violations(m, nestings) == []

    def test_mnl_always_regular(self):
        rng = np.random.default_rng(10)
        m = MnlModel(gamma=rng.uniform(0.1, 2.0, size=4))
        nestings = all_nestings(4)
        assert regularity_violations(m, nestings) == []

    def test_bad_nesting(self):
        m = PcmcModel(q=cyclic_matrix(0.5))
        with pytest.raises(BadNesting):
            regularity_violations(m, [((0, 1), (0, 1))])
        with pytest.raises(BadNesting):
            regularity_violations(m, [((0, 2), (0, 1))])

    def test_float_id_rejected_not_truncated(self):
        # 1.7 once read as 1, so the sweep audited the subset (0, 1)
        m = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        with pytest.raises(BadNesting, match="non-integer"):
            regularity_violations(m, [((0, 1.7), (0, 1, 2))], -1.0)
        with pytest.raises(BadNesting, match="non-integer"):
            regularity_violations(m, [((0, 1), (0, 1, np.float64(2)))], -1.0)

    def test_repeated_id_rejected_before_any_solve(self, monkeypatch):
        # {0} < {0, 1} as sets, so (0, 0) once passed the nesting test and
        # failed later in the solver with a plain ValueError
        m = PcmcModel(q=cyclic_matrix(0.5))
        monkeypatch.setattr(axioms, "probabilities_rows", None)
        for nesting in (((0, 0), (0, 0, 1)), ((0, 0), (0, 1)), ((0,), (0, 1, 1))):
            with pytest.raises(BadNesting, match="repeats an alternative"):
                regularity_violations(m, [((0, 1), (0, 1, 2)), nesting])

    def test_numpy_integer_ids_accepted(self):
        m = PcmcModel(q=cyclic_matrix(0.9))
        nesting = (np.array([0, 1]), (np.int64(0), np.int32(1), np.uint8(2)))
        got = regularity_violations(m, [nesting])
        assert got == regularity_violations(m, [((0, 1), (0, 1, 2))])
        assert all(type(i) is int for v in got for i in (v.item,) + v.subset + v.superset)


def _brute_force_regularity(model, nestings, tol):
    """Regularity violations by one probabilities call per menu, per
    nesting: the loop the batched sweep replaces."""
    out = []
    for a, b in nestings:
        sa, sb = tuple(sorted(a)), tuple(sorted(b))
        pa, pb = model.probabilities(sa), model.probabilities(sb)
        for item in sa:
            if pa.prob(item) < pb.prob(item) - tol:
                out.append(RegularityViolation(item, sa, sb, pa.prob(item),
                                               pb.prob(item)))
    return out


class _PerSetOnly:
    """A third-party model: probabilities, and no batched method. With
    reverse, its distributions list their support in reverse order."""

    def __init__(self, inner, reverse=False):
        self.n, self._inner, self._reverse = inner.n, inner, reverse

    def probabilities(self, subset):
        d = self._inner.probabilities(subset)
        if not self._reverse:
            return d
        return ctmc.Distribution(support=d.support[::-1], mass=d.mass[::-1])


def _family(kind, rng, n):
    if kind == "pcmc":
        return PcmcModel(q=RateMatrix(n=n, rates=random_canonical(rng, n)))
    if kind == "mnl":
        return MnlModel(gamma=rng.uniform(0.1, 2.0, size=n))
    if kind == "mmnl":
        return MmnlModel(weights=np.array([0.3, 0.7]), components=tuple(
            MnlModel(gamma=rng.uniform(0.1, 2.0, size=n)) for _ in range(2)))
    return gen_bladechest_circle(n, int(rng.integers(2 ** 31)))


def _nesting(n):
    """A strict nesting over range(n), each side listed in a random order."""
    return st.permutations(range(n)).flatmap(lambda b: st.integers(2, n).flatmap(
        lambda l: st.integers(1, l - 1).flatmap(
            lambda k: st.permutations(b[:l]).map(lambda a: (tuple(a[:k]), tuple(b[:l]))))))


class TestBatchedRegularity:
    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_brute_force(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        model = _family(kind, rng, n)
        nestings = all_nestings(n)
        for _ in range(5):
            b = tuple(rng.choice(n, size=int(rng.integers(3, n + 1)),
                                 replace=False).tolist())
            nestings.append((b[:int(rng.integers(1, len(b)))], b))
        # tol = -1 lists every (nesting, item), so every probability is
        # compared, not only those of real violations
        for tol in (1e-9, -1.0):
            want = _brute_force_regularity(model, nestings, tol)
            assert regularity_violations(model, nestings, tol) == want
        for reverse in (False, True):
            third_party = _PerSetOnly(model, reverse)
            assert regularity_violations(third_party, nestings, -1.0) == want

    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    def test_shuffled_enumeration_matches_brute_force(self, kind):
        # the records follow the input pairs, whatever order they come in
        rng = np.random.default_rng(17)
        model = _family(kind, rng, 5)
        nestings = all_nestings(5)
        nestings = [nestings[i] for i in rng.permutation(len(nestings))]
        for tol in (1e-9, -1.0):
            assert (regularity_violations(model, nestings, tol)
                    == _brute_force_regularity(model, nestings, tol))

    def test_interleaved_size_groups_keep_input_order(self):
        # (2, 3), (3, 4) and (2, 4) pairs in turn, each group split across
        # the whole input; tol = -1 lists every (pair, item)
        rng = np.random.default_rng(5)
        model = _family("pcmc", rng, 6)
        nestings = []
        for _ in range(8):
            for k, l in ((2, 3), (3, 4), (2, 4)):
                b = rng.permutation(6)[:l].tolist()
                nestings.append((tuple(rng.permutation(b)[:k].tolist()), tuple(b)))
        got = regularity_violations(model, nestings, -1.0)
        assert got == _brute_force_regularity(model, nestings, -1.0)
        assert len(got) == 8 * (2 + 3 + 2)

    # A sort key of pair * |A| + position misorders groups of different
    # |A|: pair 2 (|A| = 1) gets key 2, below pair 1's keys 3, 4 and 5.
    @settings(max_examples=40)
    @given(nestings=st.lists(_nesting(5), max_size=10))
    @example(nestings=[((0, 1), (0, 1, 2)), ((0, 1, 2), (0, 1, 2, 3)), ((0,), (0, 1))])
    @example(nestings=[((3, 1), (4, 3, 1)), ((4, 0, 2), (2, 0, 1, 4)), ((1, 2), (2, 1, 3))])
    def test_mixed_sizes_match_brute_force(self, nestings):
        model = _family("pcmc", np.random.default_rng(3), 5)
        for tol in (1e-9, -1.0):
            assert (regularity_violations(model, nestings, tol)
                    == _brute_force_regularity(model, nestings, tol))

    @pytest.mark.parametrize("subset, superset, error", [
        ((True, 0), (0, 1, 2), None),
        ((np.int64(0), 1), (0, 1, np.int64(2)), None),
        ((0, 1.7), (0, 1, 2), BadNesting),
        ((0, 1), (0, 1, np.float64(2)), BadNesting),
        ((0, 0), (0, 1, 2), BadNesting),
        ((0, 1), (0, 1, 1, 2), BadNesting),
        ((0, 1), (0, 1), BadNesting),
        ((0, 3), (0, 1, 2), BadNesting),
        ((0, -1), (0, 1, -1), IndexOutOfRange),
        ((0, 7), (0, 1, 7), IndexOutOfRange),
        ((0, 2 ** 70), (0, 1, 2 ** 70), IndexOutOfRange),
    ])
    def test_edge_ids(self, subset, superset, error):
        m = MnlModel(gamma=np.array([0.4, 0.3, 0.2, 0.1]))
        nestings = [((0, 1), (0, 1, 2)), (subset, superset)]
        if error is None:
            got = regularity_violations(m, nestings, -1.0)
            assert got == regularity_violations(m, [((0, 1), (0, 1, 2))] * 2, -1.0)
            assert all(type(i) is int for v in got for i in (v.item,) + v.subset + v.superset)
        else:
            with pytest.raises(error):
                regularity_violations(m, nestings, -1.0)

    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    def test_audit_batches_each_menu_size_once(self, kind, monkeypatch):
        # the sweep's solves all go through the probabilities_rows that axioms
        # imports from base; a per-set loop shows up as extra calls
        n = 8
        model = _family(kind, np.random.default_rng(8), n)
        calls = []
        rows = axioms.probabilities_rows
        monkeypatch.setattr(axioms, "probabilities_rows",
                            lambda m, idx: calls.append(np.shape(idx)) or rows(m, idx))
        run_audit(model)
        # one batch of the distinct menus per size, then the tournament's pairs
        want = [(math.comb(n, s), s) for s in range(2, n + 1)] + [(math.comb(n, 2), 2)]
        assert sorted(calls) == sorted(want)

    def test_audit_solves_each_menu_in_batches(self, monkeypatch):
        # a per-set loop coming back shows up as thousands of solves
        n = 8
        model = PcmcModel(q=RateMatrix(
            n=n, rates=random_canonical(np.random.default_rng(8), n)))
        solves, swept = [], []
        stationary = ctmc.stationary
        sweep = axioms._sweep
        monkeypatch.setattr(ctmc, "stationary",
                            lambda g: solves.append(g.size) or stationary(g))
        monkeypatch.setattr(axioms, "_sweep", lambda m, groups, tol: sweep(
            m, (swept.append(len(g[0])) or g for g in groups), tol))
        run_audit(model)
        # every nesting goes through the core, one block per superset size
        assert swept == [math.comb(n, k) * k for k in range(3, n + 1)]
        # only the two full-universe expansion solves go through
        # stationary(); every menu of the sweep is solved in batches
        assert sorted(solves) == [n, 2 * n]


class TestTournament:
    def test_cyclic_pairwise(self):
        p = pairwise_from_rates(cyclic_matrix(0.9).rates)
        t = tournament_from_pairwise(p)
        assert cyclic_triplets(t) == 1
        assert t.ties == frozenset()

    def test_transitive_model(self):
        m = MnlModel(gamma=np.array([0.5, 0.25, 0.15, 0.1]))
        t = tournament_from_model(m)
        assert cyclic_triplets(t) == 0
        # weights fall with the index, so each lower index wins its pair
        assert t.beats == frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
        assert tournament_from_model(_PerSetOnly(m, reverse=True)) == t

    def test_tie_orientation_and_flag(self):
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        t = tournament_from_pairwise(p)
        assert t.beats == frozenset({(1, 0)})
        assert t.ties == frozenset({(0, 1)})

    @pytest.mark.parametrize("p", [
        [[0.0, np.nan], [np.nan, 0.0]],
        [[0.0, np.inf], [np.inf, 0.0]],
        [[0.0, 0.5, np.nan], [0.5, 0.0, 0.5], [0.2, 0.5, 0.0]],
        [[np.nan, 0.5], [0.5, 0.0]],
    ])
    def test_non_finite_raw_matrix_rejected(self, p):
        # nan against nan, or inf against inf, was once read as a tie
        with pytest.raises(InvalidPairwise, match="entries must be finite"):
            tournament_from_pairwise(p)

    @pytest.mark.parametrize("p", [np.zeros((2, 3)), np.zeros(4), np.zeros((1, 2, 2))])
    def test_non_square_raw_matrix_rejected(self, p):
        with pytest.raises(InvalidPairwise, match="need a square matrix"):
            tournament_from_pairwise(p)

    def test_float_id_rejected_not_truncated(self):
        # once read as {(1, 0)}
        with pytest.raises(ValueError, match="alternative 1.5 is not an integer id"):
            Tournament(n=2, beats=[(1.5, 0.2)], ties=[])
        with pytest.raises(ValueError, match="alternative 0.0 is not an integer id"):
            Tournament(n=2, beats=[(1, 0)], ties=[(0.0, 1)])
        t = Tournament(n=2, beats=[(np.int64(1), np.uint8(0))], ties=[(np.int32(0), 1)])
        assert t.beats == frozenset({(1, 0)}) and t.ties == frozenset({(0, 1)})

    def test_work_fixture_has_two_cycles(self):
        t = tournament_from_pairwise(pairwise_from_rates(QHAT_WORK))
        assert cyclic_triplets(t) == QHAT_WORK_CYCLES
        assert cyclic_triplets(t) <= harary_moser_bound(6)

    def test_shop_fixture_matches_enumeration(self):
        t = tournament_from_pairwise(pairwise_from_rates(QHAT_SHOP))
        count = cyclic_triplets(t)
        assert count == brute_force_cycles(t.beats, t.n)
        assert count == QHAT_SHOP_CYCLES
        assert count <= harary_moser_bound(8)

    def test_harary_moser_values(self):
        assert harary_moser_bound(3) == 1
        assert harary_moser_bound(5) == 5
        assert harary_moser_bound(6) == 8
        assert harary_moser_bound(7) == 14
        assert harary_moser_bound(8) == 20

    def test_harary_moser_negative_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            harary_moser_bound(-1)

    def test_non_integer_size_rejected(self):
        # harary_moser_bound(2.5) once returned 0.0, and Tournament(n=2.0)
        # died in range()
        with pytest.raises(InvalidK, match="player count must be an integer, got 2.5"):
            harary_moser_bound(2.5)
        with pytest.raises(InvalidK, match="universe size must be an integer, got 2.0"):
            Tournament(n=2.0, beats=[(1, 0)], ties=[])
        assert type(Tournament(n=np.int64(2), beats=[(1, 0)], ties=[]).n) is int

    @given(st.integers(0, 2 ** 31 - 1))
    def test_count_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        beats = set()
        for i in range(n):
            for j in range(i + 1, n):
                beats.add((i, j) if rng.random() < 0.5 else (j, i))
        t = Tournament(n=n, beats=frozenset(beats), ties=frozenset())
        count = cyclic_triplets(t)
        assert count == brute_force_cycles(beats, n)
        assert count <= harary_moser_bound(n)

    def test_tournament_validation(self):
        with pytest.raises(ValueError):
            Tournament(n=3, beats=frozenset({(0, 1)}), ties=frozenset())


class TestDebreuScenario:
    def test_expressible_and_round_trips(self, tmp_path):
        # two pairs dead even while the third is 70/30: impossible for
        # any single quality vector, plain for a rate matrix
        rates = np.array([
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.3],
            [0.5, 0.7, 0.0],
        ])
        m = PcmcModel(q=RateMatrix(n=3, rates=rates))
        assert m.probabilities((0, 1)).prob(0) == pytest.approx(0.5, abs=1e-12)
        assert m.probabilities((0, 2)).prob(0) == pytest.approx(0.5, abs=1e-12)
        assert m.probabilities((1, 2)).prob(1) == pytest.approx(0.7, abs=1e-12)
        path = tmp_path / "debreu.json"
        serialize.save_model(m, str(path))
        back = serialize.load_model(str(path))
        assert np.array_equal(back.q.rates, m.q.rates)
        assert abs(back.probabilities((0, 1, 2)).mass.sum() - 1.0) <= 1e-10


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tol):
        # at tol=nan the audit once passed regularity on a model with 13
        # violations, and check_contractible averaged unequal rates
        q = gen_random_q(4, 0)
        part, model = Partition(n=4, blocks=((0, 1), (2, 3))), PcmcModel(q=q)
        for check in (lambda: check_contractible(q, part, tol),
                      lambda: contraction_invariance(q, q, part, tol),
                      lambda: verify_uniform_expansion(q, 2, tol),
                      lambda: regularity_violations(model, [((0, 1), (0, 1, 2))], tol),
                      lambda: run_audit(model, tol=tol)):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                check()


class TestRunAudit:
    def test_cycle_audit(self):
        report = run_audit(PcmcModel(q=cyclic_matrix(0.9)))
        by_name = {c["name"]: c for c in report["checks"]}
        reg = by_name["regularity"]
        assert reg["status"] == "fail"
        assert len(reg["violations"]) == 3
        assert reg["margin"] > 0.2
        assert by_name["uniform_expansion"]["status"] == "pass"
        cyc = by_name["cyclic_triplets"]
        assert cyc["count"] == 1
        assert cyc["max_possible"] == 1
        assert cyc["witnesses"] == [[0, 1, 2]]

    def test_mnl_audit_clean(self):
        report = run_audit(MnlModel(gamma=np.array([0.5, 0.3, 0.2])))
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["regularity"]["status"] == "pass"
        assert by_name["cyclic_triplets"]["count"] == 0

    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    @pytest.mark.parametrize("n", [3, 8, 13])
    def test_violations_match_the_public_sweep(self, kind, n):
        # the audit's own nesting blocks and record columns against the
        # public sweep over the plain tuple enumeration, and its JSON
        # against the reference serializer; tol = -1 lists every entry
        model = _family(kind, np.random.default_rng(n), n)
        nestings = all_nestings(n)
        for tol in (1e-9, -1.0):
            report = run_audit(model, tol=tol)
            reg = report["checks"][0]
            got = list(reg["violations"])
            want = regularity_violations(model, nestings, tol)
            assert got == [dataclasses.asdict(v) for v in want]
            assert [reg["violations"][i] for i in range(-len(got), 0)] == got
            with pytest.raises(IndexError):
                reg["violations"][len(got)]
            assert reg["pairs_checked"] == len(nestings)
            assert reg["status"] == ("fail" if want else "pass")
            assert reg["margin"] == max((v.p_superset - v.p_subset for v in want), default=0.0)
            plain = {**report, "checks": [{**reg, "violations": got}, *report["checks"][1:]]}
            assert serialize.dumps(report) == reference_dumps(plain)

    def test_above_twelve_checks_only_the_full_universe(self):
        # _all_nestings enumerates every nesting up to n=12; above that,
        # only each item dropped from the full universe
        report = run_audit(MnlModel(gamma=np.arange(1.0, 14.0)))
        reg = {c["name"]: c for c in report["checks"]}["regularity"]
        assert reg["pairs_checked"] == 13
        assert reg["status"] == "pass"

    def test_bladechest_expands_its_chain(self):
        report = run_audit(gen_bladechest_circle(5, seed=4))
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["uniform_expansion"]["status"] == "pass"
        assert by_name["uniform_expansion"]["copies"] == 2

    @pytest.mark.parametrize("expand_k", [2.5, 2.0, "2"])
    def test_expand_k_rejected_not_truncated(self, expand_k):
        # expand_k=2.5 was once reported as "copies": 2
        mix = MmnlModel(weights=np.array([1.0]),
                        components=(MnlModel(gamma=np.array([0.8, 0.1, 0.1])),))
        for model in (PcmcModel(q=cyclic_matrix(0.9)), mix):
            with pytest.raises(InvalidK, match="copy count must be an integer"):
                run_audit(model, expand_k=expand_k)

    def test_numpy_integer_expand_k_accepted(self):
        report = run_audit(PcmcModel(q=cyclic_matrix(0.9)), expand_k=np.int64(3))
        check = {c["name"]: c for c in report["checks"]}["uniform_expansion"]
        assert check["copies"] == 3 and type(check["copies"]) is int

    def test_mixture_skips_expansion(self):
        mix = MmnlModel(
            weights=np.array([0.5, 0.5]),
            components=(MnlModel(gamma=np.array([0.8, 0.1, 0.1])),
                        MnlModel(gamma=np.array([0.2, 0.3, 0.5]))))
        report = run_audit(mix)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["uniform_expansion"]["status"] == "skipped"
