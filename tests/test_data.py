import ast
import glob
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcmc
from pcmc import data, evaluate, luce, model, param
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import (
    DegenerateSplit,
    EmptyDataset,
    EmptySubset,
    IndexOutOfRange,
    InvalidChoice,
    InvalidK,
    NegativeAlpha,
    ParseError,
)
from pcmc.luce import MnlModel
from pcmc.model import PcmcModel

from _support import cyclic_rates, plain_tally, reference_load


def make_dataset(rows, n):
    return ChoiceDataset(n=n, observations=tuple(rows))


class TestChoiceDataset:
    def test_basic(self):
        ds = make_dataset([(0, (0, 1)), (2, (0, 1, 2))], n=3)
        assert len(ds) == 2
        assert ds.distinct_sets == ((0, 1), (0, 1, 2))

    def test_sets_are_sorted(self):
        ds = make_dataset([(2, (2, 0))], n=3)
        assert ds.observations[0] == (2, (0, 2))

    def test_chosen_must_be_offered(self):
        with pytest.raises(InvalidChoice):
            make_dataset([(2, (0, 1))], n=3)

    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([(0, (0,))], n=2)
        with pytest.raises(ValueError):
            make_dataset([(0, (0, 0))], n=2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            make_dataset([(0, (0, 5))], n=3)


    def test_hash_and_repr(self):
        ds = make_dataset([(0, (0, 1)), (2, (2, 0))], n=3)
        same = make_dataset([(0, (1, 0)), (2, (0, 2))], n=3)
        assert hash(ds) == hash(same) and len({ds, same}) == 1
        assert repr(ds) == ("ChoiceDataset(n=3, observations=((0, (0, 1)), (2, (0, 2))), "
                            "labels=None)")

    def test_invalid_choice_numbers_the_observation(self):
        with pytest.raises(InvalidChoice) as err:
            make_dataset([(0, (0, 1)), (2, (1, 0))], n=3)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("n, match", [
        (2.5, "universe size must be an integer, got 2.5"),
        (2.0, "universe size must be an integer, got 2.0"),
        ("3", "universe size must be an integer"),
        (0, "universe size must be >= 1, got 0"),
        (-1, "universe size must be >= 1, got -1"),
    ])
    def test_universe_size_rejected_not_truncated(self, n, match):
        # n=2.5 was once stored, and counts then raised a bare TypeError;
        # n=0 raised IndexOutOfRange for the set instead
        with pytest.raises(InvalidK, match=match):
            make_dataset([(0, (0, 1))], n=n)

    def test_numpy_integer_universe_size_read_as_int(self):
        ds = make_dataset([(0, (0, 1))], n=np.int64(3))
        assert type(ds.n) is int and ds.n == 3
        assert type(ds._rows(slice(1)).n) is int

    def test_labels_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="need 3 labels, got 2"):
            ChoiceDataset(n=3, observations=[(0, (0, 1))], labels=["a", "b"])

    def test_columns(self):
        ds = make_dataset([(1, (2, 1)), (0, (0, 1)), (2, (1, 2))], n=3)
        assert ds.chosen.tolist() == [1, 0, 2]
        assert [ds.sets[k] for k in ds.set_id.tolist()] == [(1, 2), (0, 1), (1, 2)]
        assert ds.observations == ((1, (1, 2)), (0, (0, 1)), (2, (1, 2)))
        for column in (ds.chosen, ds.set_id):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(AttributeError):
            ds.n = 4

    def test_rows_match_the_constructor(self):
        rows = [(0, (0, 1)), (2, (0, 1, 2)), (1, (1, 2)), (0, (0, 2))]
        ds = make_dataset(rows, n=3)
        for part in (slice(2), np.array([3, 0, 2])):
            got = ds._rows(part)
            want = make_dataset([rows[i] for i in range(4)[part]] if
                                isinstance(part, slice) else
                                [rows[i] for i in part.tolist()], n=3)
            assert got == want and len(got) == len(want)
            assert got.distinct_sets == want.distinct_sets
            for (a, u), (b, v) in zip(data._set_terms(got), data._set_terms(want)):
                assert np.array_equal(a, b) and np.array_equal(u, v)

    def test_distinct_sets_in_sorted_set_order(self):
        ds = make_dataset([(0, (0, 2)), (1, (2, 1, 0)), (1, (1, 0)),
                           (2, (0, 2))], n=3)
        assert ds.distinct_sets == ((0, 1), (0, 1, 2), (0, 2))

    def test_choice_past_its_set_is_not_offered(self):
        # 2 lies past every member of (0, 1), so the search for it ends on
        # the first member of the next set, (2, 3)
        with pytest.raises(InvalidChoice) as err:
            make_dataset([(3, (2, 3)), (2, (0, 1))], n=4)
        assert err.value.line_number == 2

    def test_float_member_rejected_not_truncated(self):
        # (0, 1.7) once read as (0, 1); the faulty set is numbered by the
        # first observation that holds it, as the other set faults are
        with pytest.raises(ParseError) as err:
            ChoiceDataset(n=3, observations=[(0, (0, 1.7))])
        assert err.value.line_number == 1
        assert "non-integer" in str(err.value)
        with pytest.raises(ParseError) as err:
            ChoiceDataset(n=3, observations=[(0, (0, 1)), (1, (1, 2)), (2, (np.float64(2), 1))])
        assert err.value.line_number == 3

    @pytest.mark.parametrize("observations, number", [
        # the chosen id 1.7 once read as 1
        ([(1.7, (0, 1))], 1),
        ([(0, (0, 1)), (np.float64(1.0), (0, 1))], 2),
        # (0, 1.0) once keyed with (0, 1) before any check, and read as it
        ([(0, (0, 1)), (1, (0, 1.0))], 2),
    ])
    def test_float_id_rejected_before_sets_merge(self, observations, number):
        with pytest.raises(ParseError, match="non-integer") as err:
            ChoiceDataset(n=3, observations=observations)
        assert err.value.line_number == number
        ds = ChoiceDataset(n=3, observations=[(np.int64(1), (np.int32(0), 1))])
        assert ds.observations == ((1, (0, 1)),)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([None, 2 ** 63 - 1]))
    def test_slots_match_a_plain_search(self, seed, n):
        # ids up to int64's top and universes as wide: the first row whose
        # choice its set does not offer is the one reported, and otherwise
        # each row's slot holds its choice inside its own set
        rng = np.random.default_rng(seed)
        pool = [0, 1, 2, 3, 5, 2 ** 62, 2 ** 63 - 3, 2 ** 63 - 2]
        rows = []
        for _ in range(int(rng.integers(1, 30))):
            menu = tuple(int(i) for i in rng.choice(pool, size=int(
                rng.integers(2, len(pool) + 1)), replace=False))
            pick = menu if rng.random() < 0.9 else pool + [-1]
            rows.append((int(pick[int(rng.integers(len(pick)))]), menu))
        n = n or max(max(s) for _, s in rows) + 1
        bad = [r for r, (c, s) in enumerate(rows) if c not in s]
        if bad:
            with pytest.raises(InvalidChoice) as err:
                make_dataset(rows, n)
            assert err.value.line_number == bad[0] + 1
            return
        ds = make_dataset(rows, n)
        start, flat = ds._start, ds._flat
        for (c, _), k, slot in zip(rows, ds.set_id.tolist(), ds._slot.tolist()):
            assert start[k] <= slot < start[k + 1] and flat[slot] == c

    def test_universe_near_int64_top(self, tmp_path):
        # at n = 2**63 - 1, len(sets) * n passes 2**63: the valid files
        # load, and the invalid one names its own faulty record, as it
        # does under '# n=4'
        path = tmp_path / "wide.txt"
        path.write_text("0,0 1\n1,0 1 9223372036854775806\n1,1 2\n2,2 3\n")
        ds = data.load(str(path))
        assert ds.n == 2 ** 63 - 1
        assert ds.observations == ((0, (0, 1)), (1, (0, 1, 2 ** 63 - 2)),
                                   (1, (1, 2)), (2, (2, 3)))
        records = "0,0 1\n1,0 2\n1,1 2\n0,0 3\n"
        for header in ("# n=9223372036854775807\n", "# n=4\n"):
            path.write_text(header + records)
            with pytest.raises(InvalidChoice) as err:
                data.load(str(path))
            assert str(err.value) == "line 3: chosen 1 not in set (0, 2)"
            path.write_text(header + records.replace("1,0 2", "2,0 2"))
            assert data.load(str(path)).observations == (
                (0, (0, 1)), (2, (0, 2)), (1, (1, 2)), (0, (0, 3)))


def _load_text(tmp_path, text, fmt):
    path = tmp_path / "data.txt"
    path.write_text(text)
    return data.load(str(path), format=fmt)


class TestEmptyDataset:
    """A dataset with no observations cannot be built, whichever public
    path builds it; every consumer relies on that."""

    @pytest.mark.parametrize("n", [3, 2, 1, 0, 2.5])
    def test_constructor(self, n):
        # emptiness is checked before n: an empty file gives n=0
        for observations in ((), [], iter(())):
            with pytest.raises(EmptyDataset):
                ChoiceDataset(n=n, observations=observations)

    @pytest.mark.parametrize("fmt", ["chosen-set-v1", "sf-matrix"])
    @pytest.mark.parametrize("text", ["", "\n", "\n  \n", "# note\n", "# n=3\n",
                                      "# n=3\n\n# more\n"])
    def test_load(self, tmp_path, fmt, text):
        with pytest.raises(EmptyDataset):
            _load_text(tmp_path, text, fmt)

    def test_malformed_sidecar_of_an_empty_file_is_reported(self, tmp_path):
        # the sidecar is read before the dataset is built
        (tmp_path / "data.txt.labels.json").write_text("{not json")
        with pytest.raises(ParseError, match="labels sidecar"):
            _load_text(tmp_path, "", "chosen-set-v1")

    def test_raised_only_when_a_dataset_is_built(self):
        # one check in the one validator; a consumer that raised it too
        # would restate a rule that every ChoiceDataset already keeps
        found = []
        for path in sorted(glob.glob(os.path.join(os.path.dirname(pcmc.__file__), "*.py"))):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    exc = node.exc if isinstance(node, ast.Raise) else None
                    exc = exc.func if isinstance(exc, ast.Call) else exc
                    name = getattr(exc, "id", getattr(exc, "attr", None))
                    if name == "EmptyDataset":
                        found.append((os.path.basename(path), func.name))
        assert found == [("data.py", "_build")]


class TestCounts:
    def test_exact_tallies(self):
        ds = make_dataset(
            [(0, (0, 1)), (0, (0, 1)), (1, (0, 1)), (2, (0, 1, 2))], n=3)
        t = data.counts(ds)
        assert t.choice_counts[(0, 1)] == {0: 2, 1: 1}
        assert t.set_counts[(0, 1)] == 3
        assert t.set_counts[(0, 1, 2)] == 1
        assert t.set_size_histogram == {2: 3, 3: 1}
        assert t.cooccurrence[0, 1] == 4
        assert t.cooccurrence[0, 2] == 1
        assert np.all(t.cooccurrence == t.cooccurrence.T)
        assert np.all(np.diag(t.cooccurrence) == 0)

    @pytest.mark.parametrize("cooc, choice, total, match", [
        (np.zeros((3, 3)), {}, {}, "must be n x n"),
        ([[0.0, 1.0], [2.0, 0.0]], {}, {}, "symmetric with zero diagonal"),
        ([[1.0, 0.0], [0.0, 0.0]], {}, {}, "symmetric with zero diagonal"),
        ([[0.0, 2.0], [2.0, 0.0]], {(0, 1): {0: 1, 1: 1}}, {(0, 1): 3},
         r"choice counts for \(0, 1\) sum to 2, set count is 3"),
    ])
    def test_table_rejections(self, cooc, choice, total, match):
        with pytest.raises(ValueError, match=match):
            data.CountTables(n=2, choice_counts=choice, set_counts=total,
                             cooccurrence=cooc, set_size_histogram={})

    def test_single_observation(self):
        t = data.counts(make_dataset([(1, (0, 1))], n=2))
        assert t.set_counts == {(0, 1): 1}

    def test_total(self):
        t = data.counts(make_dataset([(0, (0, 1))] * 3 + [(2, (0, 1, 2))], n=3))
        assert t.total == 4.0 and type(t.total) is float

    @given(st.integers(0, 2 ** 31 - 1))
    def test_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rows = []
        for _ in range(int(rng.integers(1, 30))):
            size = int(rng.integers(2, n + 1))
            members = tuple(sorted(rng.choice(n, size=size, replace=False)))
            rows.append((int(rng.choice(members)), members))
        t = data.counts(make_dataset(rows, n=n))
        assert sum(t.set_counts.values()) == len(rows)
        for s, per_item in t.choice_counts.items():
            assert sum(per_item.values()) == t.set_counts[s]

    @given(st.integers(0, 2 ** 31 - 1))
    def test_cooccurrence_matches_plain_tally(self, seed):
        # few distinct sets, many repeats of each
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        menus = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                         replace=False).tolist()))
                 for _ in range(int(rng.integers(1, 5)))]
        rows = []
        for k in rng.integers(0, len(menus), size=int(rng.integers(1, 200))):
            menu = menus[k]
            rows.append((menu[int(rng.integers(len(menu)))], menu))
        want = [[0.0] * n for _ in range(n)]
        for _, menu in rows:
            for i in menu:
                for j in menu:
                    if i != j:
                        want[i][j] += 1.0
        t = data.counts(make_dataset(rows, n=n))
        assert np.array_equal(t.cooccurrence, np.array(want))


def _repeated_menus(seed):
    """n and rows drawn from a few menus of sizes 2 to 6, each repeated,
    so some members of some menus are never chosen."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 10))
    menus = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, 7)),
                                     replace=False).tolist()))
             for _ in range(int(rng.integers(1, 8)))]
    rows = []
    for k in rng.integers(0, len(menus), size=int(rng.integers(1, 60))):
        menu = menus[k]
        rows.append((menu[int(rng.integers(min(2, len(menu))))], menu))
    return n, rows


class TestSetTerms:
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_plain_tally(self, seed):
        n, rows = _repeated_menus(seed)
        want = plain_tally(rows)
        layout = data._set_terms(make_dataset(rows, n=n))
        sizes = [idx.shape[1] for idx, _ in layout]
        assert len(sizes) == len(set(sizes))
        seen = []
        for idx, w in layout:
            assert idx.shape == w.shape and w.dtype == float
            sets = [tuple(r) for r in idx.tolist()]
            assert sets == sorted(sets)
            for s, counts in zip(sets, w.tolist()):
                assert counts == [want[s][i] for i in s]
            seen += sets
        assert sorted(seen) == sorted(want)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_smoothed_adds_alpha_to_plain_tally(self, seed):
        n, rows = _repeated_menus(seed)
        want = plain_tally(rows)
        for idx, w in data._smoothed(data._set_terms(make_dataset(rows, n=n)), 0.3):
            for s, counts in zip(map(tuple, idx.tolist()), w.tolist()):
                assert counts == [want[s][i] + 0.3 for i in s]

    def test_smoothed_rejects_negative_alpha(self):
        layout = data._set_terms(make_dataset([(0, (0, 1))], n=2))
        with pytest.raises(NegativeAlpha):
            data._smoothed(layout, -0.5)


class TestTallyOnce:
    """A dataset is tallied once, on first use, whatever number of
    likelihood consumers read it, and never through the public count
    tables."""

    def test_each_consumer_tallies_once(self, monkeypatch):
        gen = MnlModel(gamma=np.array([0.4, 0.3, 0.2, 0.1]))
        ds = data.sample(gen, [(0, 1), (1, 2, 3), (0, 1, 2, 3)], count=200,
                         seed=5)
        q = data.gen_random_q(4, seed=6)
        cfg = model.FitConfig(max_iters=3)
        consumers = {
            "fit": lambda d: model.fit(d, cfg),
            "fit_bladechest": lambda d: param.fit_bladechest(d, d=1, cfg=cfg),
            "fit_mnl": lambda d: luce.fit_mnl(d, alpha=0.1),
            "fit_mmnl": lambda d: luce.fit_mmnl(d, k=2, restarts=1, max_iters=3),
            "log_likelihood": lambda d: model.log_likelihood(gen, d),
            "smoothed_log_likelihood":
                lambda d: model.smoothed_log_likelihood(q, d, 0.1),
            "prediction_error": lambda d: evaluate.prediction_error(gen, d),
            "fit then prediction_error":
                lambda d: evaluate.prediction_error(model.fit(d, cfg).params, d),
        }
        tally = data._tally
        calls = []
        monkeypatch.setattr(data, "_tally",
                            lambda obs: calls.append(1) or tally(obs))

        def forbidden(*args):
            raise AssertionError("a likelihood consumer built count tables")

        monkeypatch.setattr(data, "counts", forbidden)
        seen = {}
        for name, run in consumers.items():
            calls.clear()
            run(ChoiceDataset(n=ds.n, observations=ds.observations))
            seen[name] = len(calls)
        assert seen == dict.fromkeys(consumers, 1)

    def test_layout_is_read_only(self):
        ds = make_dataset([(0, (0, 1)), (2, (0, 1, 2))], n=3)
        assert data._set_terms(ds) is data._set_terms(ds)
        for idx, w in data._set_terms(ds):
            with pytest.raises(ValueError):
                idx[0, 0] = 1
            with pytest.raises(ValueError):
                w[0, 0] = 5.0


class TestSplit:
    def test_sizes(self):
        ds = make_dataset([(0, (0, 1))] * 4, n=2)
        train, test = data.split(ds, 0.75, seed=0)
        assert (len(train), len(test)) == (3, 1)

    def test_deterministic_and_disjoint_cover(self):
        rows = [(i % 2, (0, 1)) for i in range(11)] + [(2, (1, 2))] * 3
        ds = make_dataset(rows, n=3)
        a = data.split(ds, 0.6, seed=42)
        b = data.split(ds, 0.6, seed=42)
        assert a[0].observations == b[0].observations
        assert a[1].observations == b[1].observations
        combined = sorted(a[0].observations + a[1].observations)
        assert combined == sorted(ds.observations)

    def test_degenerate(self):
        ds = make_dataset([(0, (0, 1))] * 2, n=2)
        with pytest.raises(DegenerateSplit):
            data.split(ds, 0.1, seed=0)  # floor(0.2) = 0 train rows
        with pytest.raises(DegenerateSplit):
            data.split(ds, 1.5, seed=0)


class TestSample:
    def test_symmetric_pair_frequency(self):
        m = MnlModel(gamma=np.array([1.0, 1.0]))
        ds = data.sample(m, [(0, 1)], count=10_000, seed=5)
        chose0 = sum(1 for c, _ in ds.observations if c == 0)
        assert abs(chose0 / 10_000 - 0.5) <= 0.02

    def test_cyclic_triple_uniform(self):
        m = PcmcModel(q=RateMatrix(n=3, rates=cyclic_rates(0.7)))
        ds = data.sample(m, [(0, 1, 2)], count=10_000, seed=6)
        freq = np.zeros(3)
        for c, _ in ds.observations:
            freq[c] += 1
        assert np.abs(freq / 10_000 - 1.0 / 3.0).max() <= 0.02

    def test_deterministic(self):
        m = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        sets = [(0, 1), (0, 1, 2), (1, 2)]
        a = data.sample(m, sets, count=500, seed=9)
        b = data.sample(m, sets, count=500, seed=9)
        assert a.observations == b.observations

    def test_convergence_to_model(self):
        # empirical conditional distributions approach the model's
        m = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        sets = [(0, 1), (0, 1, 2)]
        ds = data.sample(m, sets, count=100_000, seed=10)
        t = data.counts(ds)
        for s in sets:
            per_item = t.choice_counts[s]
            emp = np.array([per_item[i] for i in s], dtype=float)
            emp /= emp.sum()
            assert np.abs(emp - m.probabilities(s).mass).sum() <= 0.02

    def test_float_member_rejected_not_truncated(self):
        # (0, 1.7) once sampled as (0, 1); the set is numbered by its position
        m = MnlModel(gamma=np.ones(3))
        for sets, number in (([(0, 1.7)], 1), ([(0, 1), (1, 2, 0.5)], 2)):
            with pytest.raises(ParseError, match="non-integer") as err:
                data.sample(m, sets, 5, 0)
            assert err.value.line_number == number

    def test_count_validation(self):
        # 2.5 was once a bare numpy TypeError
        m = MnlModel(gamma=np.array([1.0, 1.0]))
        for count in (0, -1, 2.5, "5"):
            with pytest.raises(InvalidK, match="observation count"):
                data.sample(m, [(0, 1)], count=count, seed=0)

    def test_no_sets_rejected(self):
        m = MnlModel(gamma=np.array([1.0, 1.0]))
        with pytest.raises(EmptySubset, match="at least one choice set"):
            data.sample(m, [], count=5, seed=0)


class TestGenerators:
    def test_gen_random_q_canonical(self):
        q = data.gen_random_q(10, seed=1)
        assert q.n == 10
        assert q.is_canonical

    def test_gen_mnl_simplex(self):
        m = data.gen_mnl_simplex(6, seed=2)
        assert m.gamma.min() > 0
        assert abs(m.gamma.sum() - 1.0) <= 1e-12

    def test_gen_bladechest_circle(self):
        bc = data.gen_bladechest_circle(5, seed=3)
        assert bc.d == 2
        assert bc.variant == "distance"
        assert np.abs(np.linalg.norm(bc.blades, axis=1) - 1.0).max() <= 1e-12
        assert np.abs(np.linalg.norm(bc.chests, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("gen", [data.gen_random_q, data.gen_mnl_simplex,
                                     data.gen_bladechest_circle])
    @pytest.mark.parametrize("n", [1, 0])
    def test_below_two_alternatives_rejected(self, gen, n):
        with pytest.raises(InvalidK, match="universe size must be >= 2, got %d" % n):
            gen(n, seed=0)

    @pytest.mark.parametrize("gen", [data.gen_random_q, data.gen_mnl_simplex,
                                     data.gen_bladechest_circle])
    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_universe_rejected(self, gen, n):
        # once a bare numpy TypeError
        with pytest.raises(InvalidK, match="universe size must be an integer"):
            gen(n, seed=0)

    def test_generators_deterministic(self):
        a = data.gen_random_q(4, seed=11)
        b = data.gen_random_q(4, seed=11)
        assert np.array_equal(a.rates, b.rates)


def _seeded_calls():
    """Each call that takes a seed, as a function of the seed."""
    ds = make_dataset([(0, (0, 1)), (1, (0, 1)), (1, (1, 2)), (2, (1, 2)),
                       (0, (0, 2)), (2, (0, 2))], 3)
    gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
    return {
        "gen_random_q": lambda seed: data.gen_random_q(4, seed),
        "gen_mnl_simplex": lambda seed: data.gen_mnl_simplex(4, seed),
        "gen_bladechest_circle": lambda seed: data.gen_bladechest_circle(4, seed),
        "sample": lambda seed: data.sample(gen, [(0, 1), (1, 2)], 5, seed),
        "split": lambda seed: data.split(ds, 0.5, seed),
        "fit_mmnl": lambda seed: luce.fit_mmnl(ds, k=2, seed=seed, restarts=1),
        "learning_curve": lambda seed: evaluate.learning_curve(
            ds, [evaluate.FitSpec(kind="mnl", alpha=0.1)], [1.0], 1, seed=seed),
    }


class TestSeeds:
    """Every seed is read by one reader: an int >= 0, or numpy's
    SeedSequence, BitGenerator or Generator as it is."""

    @pytest.mark.parametrize("seed, match", [
        (-1, "seed must be >= 0, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        ("3", "seed must be an integer"),
        (None, "seed must be an integer, got None"),
    ])
    @pytest.mark.parametrize("call", sorted(_seeded_calls()))
    def test_rejected(self, call, seed, match):
        # -1 once died in numpy with a bare ValueError, 2.5 with a TypeError
        with pytest.raises(InvalidK, match=match):
            _seeded_calls()[call](seed)

    @pytest.mark.parametrize("call", sorted(_seeded_calls()))
    def test_numpy_seeds_pass_through(self, call):
        # fit_mmnl once raised a bare TypeError on a BitGenerator or Generator
        run = _seeded_calls()[call]
        want = repr(run(7))
        assert repr(run(np.random.SeedSequence(7))) == want
        assert repr(run(np.random.PCG64(7))) == want
        assert repr(run(np.random.default_rng(7))) == want
        assert repr(run(np.int64(7))) == want

    def test_mixture_takes_a_seed_sequence(self):
        run = _seeded_calls()["fit_mmnl"]
        assert repr(run(np.random.SeedSequence(7))) == repr(run(7))


def _real_calls():
    """Each call that reads a real-valued argument, as a function of it,
    with the error it raises for a value that is not a number."""
    ds = make_dataset([(0, (0, 1)), (1, (0, 1)), (1, (1, 2)), (2, (1, 2))], 3)
    gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
    return {
        "fit_mnl": (lambda x: luce.fit_mnl(ds, alpha=x), NegativeAlpha,
                    "smoothing pseudocount"),
        "FitConfig": (lambda x: model.FitConfig(smoothing_alpha=x), NegativeAlpha,
                      "smoothing pseudocount"),
        "run_audit": (lambda x: pcmc.run_audit(gen, tol=x), ValueError, "tolerance"),
        "split": (lambda x: data.split(ds, x, 0), DegenerateSplit, "train fraction"),
        "learning_curve": (lambda x: evaluate.learning_curve(
            ds, [evaluate.FitSpec(kind="mnl")], [x], 2), ValueError, "fraction"),
    }


@pytest.mark.parametrize("value", ["0.5", b"0.5", None, [0.5]])
@pytest.mark.parametrize("call", sorted(_real_calls()))
def test_real_argument_refuses_non_number(call, value):
    # each string or bytes once ran as the number it spells; None and a
    # list raised a bare TypeError
    run, error, what = _real_calls()[call]
    with pytest.raises(error, match="^%s must be a real number, got %s$"
                       % (what, re.escape(repr(value)))):
        run(value)


def test_fit_config_stores_alpha_as_float():
    assert type(model.FitConfig(smoothing_alpha=1).smoothing_alpha) is float
    assert type(model.FitConfig(smoothing_alpha=np.float32(0.5)).smoothing_alpha) is float


class TestLoadSave:
    def test_inline_example(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0,0 1\n1,0 1 2\n")
        ds = data.load(str(path))
        assert len(ds) == 2
        assert ds.n == 3
        assert ds.observations == ((0, (0, 1)), (1, (0, 1, 2)))

    def test_header_sets_n(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("# n=5\n0,0 1\n")
        assert data.load(str(path)).n == 5

    def test_round_trip(self, tmp_path):
        ds = make_dataset([(0, (0, 1)), (1, (0, 1, 2)), (2, (1, 2))], n=3)
        path = tmp_path / "out.txt"
        data.save(ds, str(path))
        back = data.load(str(path))
        assert back.n == ds.n
        assert back.observations == ds.observations

    def test_labels_sidecar_round_trip(self, tmp_path):
        ds = ChoiceDataset(n=2, observations=((0, (0, 1)),),
                           labels=("car", "bus"))
        path = tmp_path / "out.txt"
        data.save(ds, str(path))
        assert data.load(str(path)).labels == ("car", "bus")
        # an unlabelled save over it removes the old sidecar, whether n is
        # kept (which read the old labels back) or changed (which raised)
        for n in (2, 3):
            data.save(ds, str(path))
            plain = ChoiceDataset(n=n, observations=((1, (0, 1)),))
            data.save(plain, str(path))
            assert data.load(str(path)) == plain
            assert not (tmp_path / "out.txt.labels.json").exists()

    @pytest.mark.parametrize("text", ["{not json", "[\"car\", \"bus\"]",
                                      '{"labels": "car"}', '{"labels": ["car"]}'])
    def test_malformed_labels_sidecar(self, tmp_path, text):
        path = tmp_path / "out.txt"
        path.write_text("0,0 1\n")
        (tmp_path / "out.txt.labels.json").write_text(text)
        with pytest.raises(ParseError):
            data.load(str(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0 1\nnot a row\n")
        with pytest.raises(ParseError) as err:
            data.load(str(path))
        assert err.value.line_number == 2

    def test_invalid_choice_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0 1\n2,0 1\n")
        with pytest.raises(InvalidChoice) as err:
            data.load(str(path))
        assert err.value.line_number == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(EmptyDataset):
            data.load(str(path))

    def test_sf_matrix_format(self, tmp_path):
        # chosen index followed by 0/1 membership indicators
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n2 1 1 1\n1 0 1 1\n")
        ds = data.load(str(path), format="sf-matrix")
        assert ds.n == 3
        assert ds.observations == (
            (0, (0, 1)), (2, (0, 1, 2)), (1, (1, 2)))

    def test_sf_matrix_chosen_must_be_member(self, tmp_path):
        path = tmp_path / "sf.txt"
        path.write_text("2 1 1 0\n")
        with pytest.raises(InvalidChoice):
            data.load(str(path), format="sf-matrix")

    def test_sf_matrix_rejects_fractional_tokens(self, tmp_path):
        # truncating would read line 2 as "chose 1 from {1, 2}"
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n1.9 0.6 1 1\n")
        with pytest.raises(ParseError) as err:
            data.load(str(path), format="sf-matrix")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("token", ["x", "nan", "inf", "1e400", "0x1"])
    def test_sf_matrix_rejects_non_numeric_tokens(self, tmp_path, token):
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n1 %s 1 1\n" % token)
        with pytest.raises(ParseError) as err:
            data.load(str(path), format="sf-matrix")
        assert err.value.line_number == 2

    def test_sf_matrix_accepts_integral_floats(self, tmp_path):
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n2.0 1.0 1 1e0\n")
        ds = data.load(str(path), format="sf-matrix")
        assert ds.observations == ((0, (0, 1)), (2, (0, 1, 2)))

    def test_last_header_sets_n(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("# n=5\n0,0 1\n# n=6\n")
        assert data.load(str(path)).n == 6

    def test_chosen_outside_the_universe_is_not_offered(self, tmp_path):
        # 3 in (0, 1) and -1 in (1, 2) sit where a search over the sets
        # (0, 1), (0, 2), (1, 2) would find a member of the next or the
        # previous set
        with pytest.raises(InvalidChoice) as err:
            make_dataset([(0, (0, 2)), (-1, (1, 2))], n=3)
        assert err.value.line_number == 2
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n3 1 1 0\n0 1 0 1\n")
        with pytest.raises(InvalidChoice) as err:
            data.load(str(path), format="sf-matrix")
        assert err.value.line_number == 2

    def test_sf_matrix_ragged_across_chunks(self, tmp_path):
        path = tmp_path / "sf.txt"
        path.write_text("0 1 1 0\n" * data._CHUNK_ROWS + "0 1 1\n")
        with pytest.raises(ParseError) as err:
            data.load(str(path), format="sf-matrix")
        assert err.value.line_number == data._CHUNK_ROWS + 1

    def test_accepted_file_is_read_once(self, tmp_path):
        # load calls its format's one reader once: the reader accepts the
        # file, its third record fails validation, and the error names
        # that record's file line
        path = tmp_path / "data.txt"
        path.write_text("# n=3\n0,0 1\n\n# note\n1,1 2\n2,0 1\n0,0 2\n")
        reader = mock.Mock(wraps=data._FORMATS["chosen-set-v1"])
        with mock.patch.dict(data._FORMATS, {"chosen-set-v1": reader}):
            with pytest.raises(InvalidChoice) as err:
                data.load(str(path))
        assert err.value.line_number == 6
        assert reader.call_count == 1

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0,0 1\n")
        with pytest.raises(ValueError):
            data.load(str(path), format="nope")
        # the format is checked before the file is read
        with pytest.raises(ValueError, match="unknown dataset format"):
            data.load(str(tmp_path / "missing.txt"), format="csv")


# (file text, error type, line number) for files with one fault each
_CHOSEN_SET_FAULTS = {
    "one member": ("0,0 1\n0,0\n", ParseError, 2),
    "repeated member": ("0,0 1\n1,1 1 2\n", ParseError, 2),
    "repeat only": ("0,0 0\n", ParseError, 1),
    "negative chosen": ("0,0 1\n-1,0 1\n", ParseError, 2),
    "negative member": ("0,0 1\n1,-1 1\n", ParseError, 2),
    "above declared n": ("# n=3\n0,0 1\n1,1 3\n", ParseError, 0),
    "chosen not offered": ("0,0 1\n2,0 1\n", InvalidChoice, 2),
    "non-integer token": ("0,0 1\n0,0 x\n", ParseError, 2),
    "fractional chosen": ("0,0 1\n1.0,0 1\n", ParseError, 2),
    "missing comma": ("0,0 1\n0 0 1\n", ParseError, 2),
    "choice after comments": ("# note\n\n0,0 1\n\n# more\n2,0 1\n",
                              InvalidChoice, 6),
    "set after comments": ("# note\n\n0,0 1\n\n1,1\n", ParseError, 5),
    "id beyond int64": ("0,0 1\n1,0 1 99999999999999999999\n", ParseError, 2),
    "id at int64 max": ("0,0 1\n1,0 1 9223372036854775807\n", ParseError, 2),
    "n beyond int64": ("# n=99999999999999999999\n0,0 1\n", ParseError, 0),
    "range token": ("0,0 1\n1,0 1-2\n", ParseError, 2),
    "lone minus": ("0,0 1\n1,0 - 1\n", ParseError, 2),
}

_SF_MATRIX_FAULTS = {
    "one member": ("0 1 1 0\n0 1 0 0\n", ParseError, 2),
    "chosen at width": ("0 1 1 0\n3 1 1 1\n", InvalidChoice, 2),
    "chosen past width": ("0 1 1 0\n7 1 1 1\n", InvalidChoice, 2),
    "chosen negative": ("0 1 1 0\n-1 1 1 0\n", InvalidChoice, 2),
    "chosen not offered": ("0 1 1 0\n2 1 1 0\n", InvalidChoice, 2),
    "indicator of 2": ("0 1 1 0\n0 1 2 0\n", ParseError, 2),
    "short row after comments": ("# note\n\n0 1 1 0\n# more\n0 1 1\n",
                                 ParseError, 5),
    "long row after comments": ("# note\n\n0 1 1 0\n# more\n0 1 1 0 1\n",
                                ParseError, 5),
    "width below 3": ("0 1\n", ParseError, 1),
}


class TestMalformedInput:
    """Each faulty file raises one library error naming its line, with
    one 'line N:' prefix; 0 names the '# n=' header."""

    @staticmethod
    def _check(tmp_path, text, exc_type, line, fmt):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(exc_type) as err:
            data.load(str(path), format=fmt)
        assert type(err.value) is exc_type
        assert err.value.line_number == line
        message = str(err.value)
        assert message.startswith("line %d: " % line)
        assert message.count("line") == 1

    @pytest.mark.parametrize("case", sorted(_CHOSEN_SET_FAULTS))
    def test_chosen_set(self, tmp_path, case):
        self._check(tmp_path, *_CHOSEN_SET_FAULTS[case], "chosen-set-v1")

    @pytest.mark.parametrize("case", sorted(_SF_MATRIX_FAULTS))
    def test_sf_matrix(self, tmp_path, case):
        self._check(tmp_path, *_SF_MATRIX_FAULTS[case], "sf-matrix")


def _outcome(read):
    """What a load returns, or the type, line and message it raises."""
    try:
        ds = read()
    except Exception as exc:  # noqa: BLE001 - any raise must match
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return ds.n, ds.observations, ds.labels, [
        (idx.tolist(), w.tolist()) for idx, w in data._set_terms(ds)]


def _load_both(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return (_outcome(lambda: data.load(path, format=fmt)),
                _outcome(lambda: reference_load(path, fmt)))


# files that Python's str and int functions would read, each refused by
# the readers with ParseError at one line: (text, format, line)
_REFUSED = {
    "no-break space": ("0,0 1\n1,0\u00a01\n", "chosen-set-v1", 2),
    "em space": ("0 1 1 0\n1\u20031 1 0\n", "sf-matrix", 2),
    "Arabic-Indic digit": ("0,0 1\n1,0 \u0661\n", "chosen-set-v1", 2),
    "line of em spaces": ("0,0 1\n\u2003\u2003\n1,0 1\n", "chosen-set-v1", 2),
    "unit separator": ("0 1 1 0\n1\x1f1 1 0\n", "sf-matrix", 2),
    "plus": ("0,0 1\n+1,0 1\n", "chosen-set-v1", 2),
    "underscore": ("0,0 1\n1,1 1_0\n", "chosen-set-v1", 2),
    "minus zero": ("0,0 1\n1,-0 1\n", "chosen-set-v1", 2),
    "chosen of 2**63 - 1": ("0,0 1\n9223372036854775807,0 1\n", "chosen-set-v1", 2),
    "sf chosen of 1e20": ("0 1 1\n1e20 1 1\n", "sf-matrix", 2),
    "20 digits": ("0,0 1\n1,0 00000000000000000001\n", "chosen-set-v1", 2),
    **{"%r in a comment" % c: ("# n=3%s0,0 1\n1,0 1\n" % c, "chosen-set-v1", 1)
       for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
    "form feed after a comment": ("0 1 1 0\n# a\x0c\n1 1 1 0\n", "sf-matrix", 2),
}

# valid files beyond the plain ones: (text, format, n, observations)
_KEPT = {
    "CRLF": ("# n=3\r\n0,0 1\r\n\r\n1,1 2\r\n", "chosen-set-v1", 3,
             ((0, (0, 1)), (1, (1, 2)))),
    "sf commas": ("0,1,1,0\n2, 1 ,1,1\n", "sf-matrix", 3, ((0, (0, 1)), (2, (0, 1, 2)))),
    "1.0": ("1.0 1 1.0 0\n", "sf-matrix", 3, ((1, (0, 1)),)),
    "1e0": ("1e0 1 1 1E0\n", "sf-matrix", 3, ((1, (0, 1, 2)),)),
    "%.18e": ("%.18e %.18e %.18e %.18e\n" % (2, 0, 1, 1), "sf-matrix", 3, ((2, (1, 2)),)),
    "+1": ("+1 1 +1 0\n", "sf-matrix", 3, ((1, (0, 1)),)),
    "-0": ("-0 1 -0 1\n", "sf-matrix", 3, ((0, (0, 2)),)),
    "19-digit id": ("1,0 1 9223372036854775806\n", "chosen-set-v1", 2 ** 63 - 1,
                    ((1, (0, 1, 2 ** 63 - 2)),)),
    "comment led by an em space": ("\u2003# n=4\n0,0 1\n", "chosen-set-v1", 4,
                                   ((0, (0, 1)),)),
}


class TestFormatBounds:
    """The files at the edge of each format: those the readers refuse,
    and the odd but valid ones they read. load and the reference agree
    on each."""

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_refused(self, case):
        text, fmt, line = _REFUSED[case]
        got, want = _load_both(text, fmt)
        assert got == want and got[:2] == (ParseError, line)

    @pytest.mark.parametrize("case", sorted(_KEPT))
    def test_kept(self, case):
        text, fmt, n, observations = _KEPT[case]
        got, want = _load_both(text, fmt)
        assert got == want and got[:2] == (n, observations)


# odd or faulty tokens, which load must read as the reference does
_ODD_TOKENS = ["1.0", "1e0", "2.0", "+1", "1_0", "-1", "-0", "007", "01", "x",
               "-", "1-2", "nan", "2147483648", "99999999999999999999", "\u0661"]
_SPACES = [" ", " ", " ", "\t", "  ", "\u00a0", "\u2003"]
_COMMENTS = ["# n=%d", "#n = %d", "# note %d", "#%d,1 2"]


@st.composite
def _token(draw, top, faulty):
    if not faulty or draw(st.integers(0, 9)) < 8:
        return str(draw(st.integers(0, top)))
    return draw(st.sampled_from(_ODD_TOKENS))


@st.composite
def _file(draw, record):
    """Lines from record(faulty), comments, '# n=' headers and blank
    lines, joined by one line ending, some padded with whitespace. A
    third of the files are well formed; in the rest a tenth or two
    fifths of the records may hold faults."""
    rate = draw(st.sampled_from([0, 1, 4]))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            line = draw(record(draw(st.integers(0, 9)) < rate))
        elif kind < 9:
            line = draw(st.sampled_from(_COMMENTS)) % draw(st.integers(0, 12))
        else:
            line = draw(st.sampled_from(["", " ", "\t"]))
        pad = draw(st.sampled_from(["", "", " ", "\t", "\u2003"]))
        lines.append(pad + line + pad[::-1])
    return draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


@st.composite
def _chosen_set_record(draw, faulty):
    unique = not faulty or draw(st.integers(0, 4)) > 0
    members = draw(st.lists(st.integers(0, 7), min_size=2 if unique else 0,
                            max_size=5, unique=unique))
    tokens = [str(i) if draw(st.integers(0, 9)) < 9 else draw(_token(7, faulty))
              for i in members]
    if members and (not faulty or draw(st.booleans())):
        chosen = str(draw(st.sampled_from(members)))
    elif faulty and not draw(st.integers(0, 9)):
        chosen = draw(st.sampled_from(["", "0 1", "1\t2"]))
    else:
        chosen = draw(_token(8, faulty))
    comma = draw(st.sampled_from([",", ", ", " ,", "", ",,"] if faulty else
                                 [",", ", ", " ,\t"]))
    return chosen + comma + draw(st.sampled_from(_SPACES)).join(tokens)


@st.composite
def _sf_matrix_file(draw):
    width = draw(st.integers(2 if draw(st.booleans()) else 3, 6))

    @st.composite
    def record(draw, faulty):
        cells = [str(draw(st.integers(0, 1))) if not faulty or draw(st.integers(0, 19))
                 else draw(st.sampled_from(["2", "-1", "-0", "01", "1.0", "1e0", "+1",
                                            "1_0", "x"]))
                 for _ in range(width - 1)]
        if not faulty and cells.count("1") < 2:
            cells[:2] = ["1", "1"]
        if faulty and not draw(st.integers(0, 14)):
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        offered = [str(i) for i, c in enumerate(cells) if c == "1"]
        if offered and (not faulty or draw(st.integers(0, 3))):
            chosen = draw(st.sampled_from(offered))
        else:
            chosen = draw(_token(width, faulty))
        sep = draw(st.sampled_from(_SPACES + [",", ", "]))
        return sep.join([chosen] + cells)

    return draw(_file(record))


class TestParserEquivalence:
    """load's readers against the line-at-a-time reference: on any file
    load returns what the reference returns, or raises the same error
    type, line number and message."""

    @given(_file(_chosen_set_record))
    def test_chosen_set(self, text):
        got, want = _load_both(text, "chosen-set-v1")
        assert got == want

    @given(_sf_matrix_file())
    def test_sf_matrix(self, text):
        got, want = _load_both(text, "sf-matrix")
        assert got == want

    @pytest.mark.parametrize("text, fmt", [
        ("1 2,1 2\n", "chosen-set-v1"),
        ("0,0 1\n,0 1\n", "chosen-set-v1"),
        ("0,0 1,\n", "chosen-set-v1"),
        ("0,0 1\n1,-0 1\n1,0 01\n", "chosen-set-v1"),
        ("0,0 -1\n", "chosen-set-v1"),
        ("# n=2\n0,0 1\n# n=1\n", "chosen-set-v1"),
        ("0 1 1 0\n3 1 1 0\n0 1 0 1\n", "sf-matrix"),
        ("0 1 1 0\n1 -0 01 1\n", "sf-matrix"),
        ("0 1 1 0\n1 0 +1 1\n", "sf-matrix"),
        ("0 1 1 0\n-1 1 1 0\n", "sf-matrix"),
    ])
    def test_edge_files(self, text, fmt):
        got, want = _load_both(text, fmt)
        assert got == want

    @given(st.integers(0, 2 ** 31 - 1))
    def test_array_path_reads_plain_files(self, seed):
        # plain files: each read to the rows they were written from
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        rows = []
        for _ in range(int(rng.integers(1, 40))):
            menu = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                      replace=False))
            rows.append((int(rng.choice(menu)), tuple(menu.tolist())))
        chosen_set = "# n=%d\n" % n + "".join(
            "%d,%s\n" % (c, " ".join(map(str, s))) for c, s in rows)
        sf = "".join("%d %s\n" % (c, " ".join(
            "1" if i in s else "0" for i in range(n))) for c, s in rows)
        for text, fmt, columns in ((chosen_set, "chosen-set-v1",
                                    data._chosen_set_columns),
                                   (sf, "sf-matrix", data._sf_matrix_columns)):
            assert columns(text) is not None
            got, want = _load_both(text, fmt)
            assert got == want and got[1] == tuple(rows)

    @given(st.sampled_from([2, 3]), _file(_chosen_set_record))
    def test_chosen_set_across_blocks(self, rows, text):
        # blocks of 2 or 3 lines, so these short files cross block edges
        with mock.patch.object(data, "_CHUNK_ROWS", rows):
            got, want = _load_both(text, "chosen-set-v1")
        assert got == want

    @given(st.sampled_from([2, 3]), _sf_matrix_file())
    def test_sf_matrix_across_blocks(self, rows, text):
        with mock.patch.object(data, "_CHUNK_ROWS", rows):
            got, want = _load_both(text, "sf-matrix")
        assert got == want


def _plain_rows(n, count, seed):
    """count (chosen, menu) rows over n alternatives, menus of 2 to 6."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        menu = np.sort(rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)),
                                  replace=False))
        rows.append((int(rng.choice(menu)), tuple(menu.tolist())))
    return rows


def _record_lines(rows, n, fmt, sep=" "):
    if fmt == "sf-matrix":
        return [sep.join([str(c)] + ["1" if i in s else "0" for i in range(n)])
                for c, s in rows]
    return ["%d,%s" % (c, sep.join(map(str, s))) for c, s in rows]


class TestArrayPathFiles:
    """Plain files, wide or longer than a block, read to the reference's
    result."""

    @staticmethod
    def _check(lines, fmt, rows):
        text = "\n".join(lines) + "\n"
        got, want = _load_both(text, fmt)
        assert got == want and got[1] == tuple(rows)

    @pytest.mark.parametrize("n", [3, 64, 65, 70])
    def test_wide_sf_matrix(self, n):
        # a mask of up to 64 bits is one 8-byte integer key; 65 and 70
        # need more bytes
        rows = _plain_rows(n, 300, seed=n)
        self._check(_record_lines(rows, n, "sf-matrix"), "sf-matrix", rows)

    @pytest.mark.parametrize("fmt", ["chosen-set-v1", "sf-matrix"])
    @pytest.mark.parametrize("style", ["tabs", "padded", "blank lines", "comments"])
    def test_longer_than_a_block(self, fmt, style):
        edge = data._CHUNK_ROWS
        rows = _plain_rows(6, edge + 10, seed=7)
        lines = _record_lines(rows, 6, fmt, "\t" if style == "tabs" else " ")
        if style == "padded":
            lines = [" " * (k % 3) + s + " \t"[:k % 3] for k, s in enumerate(lines)]
        elif style == "blank lines":
            # the last line of the first block and the first of the second
            lines[edge - 1:edge - 1] = ["", " \t"]
        elif style == "comments":
            lines[edge - 1:edge - 1] = ["# note", "", "#", "# n=6"]
        self._check(lines, fmt, rows)


@st.composite
def _near_plain_block(draw):
    """A block of sf-matrix lines of one bit count, each a chosen id of 1
    to 20 digits and then a space and a 0/1 byte per bit; in three blocks
    of four, one byte of one line replaced or one inserted. Also the width
    the reader is told: None, the true one or another."""
    bits = draw(st.integers(1, 9))
    lines = [draw(st.text("0123456789", min_size=1, max_size=draw(st.sampled_from([2, 20]))))
             + "".join(" " + draw(st.sampled_from("01")) for _ in range(bits))
             for _ in range(draw(st.integers(1, 6)))]
    if draw(st.integers(0, 3)):
        k = draw(st.integers(0, len(lines) - 1))
        at, cut = draw(st.integers(0, len(lines[k]))), draw(st.integers(0, 1))
        lines[k] = lines[k][:at] + draw(st.sampled_from(
            [" ", "\t", "0", "1", "2", "9", "#", "-", ""])) + lines[k][at + cut:]
    width = draw(st.sampled_from([None, bits + 1, bits + 2]))
    return ("\n".join(lines) + "\n").encode(), width


class TestPlainRows:
    """The fixed-width reader of plain sf-matrix blocks against the token
    path, and the files whose blocks it reads or declines."""

    @settings(max_examples=300)
    @given(_near_plain_block())
    @example((b"3 1 2\n4 0 1\n", None))
    @example((b"9999999999999999999 1 0\n", None))
    def test_accepted_block_matches_token_path(self, drawn):
        raw, width = drawn
        b = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero(b == ord("\n"))
        rows = data._plain_rows(b, ends, width)
        if rows is None:
            return
        chosen, indicators = rows
        w = indicators.shape[1] + 1
        assert width in (None, w) and len(chosen) == len(ends)
        assert not raw.translate(None, b"0123456789 \n")
        starts, count = data._tokens(b, ends, False)[:2]
        assert (count == w).all()
        bits = b[starts].reshape(-1, w)[:, 1:] - ord("0")
        assert bits.max() <= 1 and (b[starts + 1].reshape(-1, w)[:, 1:] < ord("0")).all()
        assert np.array_equal(chosen, data._integers(b, starts[::w])[0])
        assert np.array_equal(np.packbits(indicators, axis=1), np.packbits(bits, axis=1))

    @given(st.integers(1, 9), st.lists(st.integers(0, 10 ** 20), min_size=1,
                                       max_size=8), st.randoms())
    def test_plain_block_is_read(self, bits, chosen, rnd):
        lines = ["%d%s" % (c, "".join(" " + rnd.choice("01") for _ in range(bits)))
                 for c in chosen]
        b = np.frombuffer(("\n".join(lines) + "\n").encode(), np.uint8)
        rows = data._plain_rows(b, np.flatnonzero(b == ord("\n")), None)
        assert (rows is None) == (bits < 2 or max(chosen) >= 10 ** 18)
        if rows is not None:
            assert rows[0].tolist() == chosen
            assert [" ".join("01"[x] for x in r) for r in rows[1].tolist()] == [
                s.split(" ", 1)[1] for s in lines]

    _FAULTS = {
        "tab": lambda s: s.replace(" ", "\t", 1),
        "double space": lambda s: s.replace(" ", "  ", 1),
        "leading space": lambda s: " " + s,
        "trailing space": lambda s: s + " ",
        "two-byte bit": lambda s: s[:-1] + "01",
        "bit 2": lambda s: s[:-1] + "2",
        "short row": lambda s: s[:-2],
        "long row": lambda s: s + " 0",
        "19-digit chosen": lambda s: "9" * 19 + s[s.index(" "):],
        "negative chosen": lambda s: "-" + s,
        "zero-padded chosen": lambda s: "00" + s,
        "hash in a record": lambda s: s[:-2] + "#" + s[-1],
    }

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("line", [0, 2, 6])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_one_fault(self, fault, line, rows):
        lines = _record_lines(_plain_rows(12, 7, seed=line), 12, "sf-matrix")
        lines[line] = self._FAULTS[fault](lines[line])
        with mock.patch.object(data, "_CHUNK_ROWS", rows):
            got, want = _load_both("\n".join(lines) + "\n", "sf-matrix")
        assert got == want

    @pytest.mark.parametrize("text, fmt", [
        ("# x\x0b0 1 1 0\n0 1 1 0\n", "sf-matrix"),
        ("0 1 1 0\n  # x\x0c1 1 0 1\n", "sf-matrix"),
        ("# n=3\u20280,0 1\n1,1 2\n", "chosen-set-v1"),
        ("\u2003# n=4\n0,0 1\n", "chosen-set-v1"),
        ("0 1 1 0\n# a\n\n# b\x85\r\n1 1 1 0", "sf-matrix"),
    ])
    def test_comment_cut(self, text, fmt):
        # a comment line is cut whole, but for a line break that the line
        # loop splits on inside it
        got, want = _load_both(text, fmt)
        assert got == want

    @pytest.mark.parametrize("rows", [3, None])
    def test_plain_file_never_takes_token_path(self, tmp_path, rows):
        # a silent fall back to the token path would read the same columns
        # more slowly; here it raises
        rows = rows or data._CHUNK_ROWS
        want = _plain_rows(20, 2 * rows + 5, seed=rows)
        path = tmp_path / "plain.sf"
        path.write_text("\n".join(_record_lines(want, 20, "sf-matrix")) + "\n")
        with mock.patch.object(data, "_CHUNK_ROWS", rows), \
                mock.patch.object(data, "_tokens", side_effect=AssertionError), \
                mock.patch.object(data, "_integers", side_effect=AssertionError):
            ds = data.load(str(path), format="sf-matrix")
        assert ds.observations == tuple(want)


def _wide_rows(count, n, menus, seed):
    """count (chosen, menu) rows over n alternatives, each menu one of
    menus sets of 2 to 6 (rows of a 0/1 mask), drawn as whole arrays."""
    rng = np.random.default_rng(seed)
    rank = rng.random((menus, n)).argsort(axis=1).argsort(axis=1)
    size = rng.integers(2, 7, menus)
    menu = rng.integers(0, menus, count)
    chosen = (rank[menu] == rng.integers(0, size[menu])[:, None]).argmax(axis=1)
    return chosen.tolist(), (rank < size[:, None])[menu]


class TestLoadMemory:
    """The traced peak of one load, in multiples of the file's size, on
    50,000 rows over 20 alternatives and 150 menus, the benchmark's wide
    file: a few blocks' worth of working arrays on top of the text, never
    a copy of the whole file per step. Also on the first 4,096 of those
    rows written by np.savetxt: one block of float-form tokens."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        chosen, mask = _wide_rows(50_000, 20, 150, seed=3)
        root = tmp_path_factory.mktemp("wide")
        plain = "".join("%d %s\n" % (c, " ".join("01"[x] for x in row))
                        for c, row in zip(chosen, mask.astype(int).tolist()))
        (root / "plain.sf").write_text(plain)
        (root / "tabs.sf").write_text(plain.replace(" ", "\t"))
        data.save(data.load(str(root / "plain.sf"), format="sf-matrix"),
                  str(root / "saved.txt"))  # '# n=20' and then the records
        np.savetxt(root / "savetxt.sf", np.column_stack([chosen[:4096], mask[:4096]]))
        return root

    @staticmethod
    def _peak_ratio(path, fmt):
        # untraced first: a first load's one-time imports (np.unique imports
        # numpy.ma) once put the saved.txt peak at 8.3x when run alone
        data.load(str(path), format=fmt)
        tracemalloc.start()
        try:
            data.load(str(path), format=fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / os.path.getsize(path)

    @pytest.mark.parametrize("name, fmt, bound", [
        ("plain.sf", "sf-matrix", 4.0),
        ("tabs.sf", "sf-matrix", 4.0),
        # 6.8x, its member ids one byte each: as int64 they peaked at
        # 11.5x, and a per-line pass over the text to drop the comment at
        # 16.9x
        ("saved.txt", "chosen-set-v1", 8.0),
        # 10.7x: an int64 count over every byte of the block once peaked at
        # 21.7x; the bound is the measured ratio plus 1.3 of margin
        ("savetxt.sf", "sf-matrix", 12.0),
    ])
    def test_peak(self, files, name, fmt, bound):
        assert self._peak_ratio(files / name, fmt) <= bound


class TestDistinctRows:
    """The one distinct-rows kernel of the readers and the audit sweep,
    against np.unique(axis=0): the same distinct rows, in any order, and
    an inverse that rebuilds the input."""

    @staticmethod
    def _check(rows):
        distinct, inverse = data._distinct_rows(rows)
        assert distinct.dtype == rows.dtype and len(inverse) == len(rows)
        assert np.array_equal(distinct[inverse], rows)
        want = np.unique(rows, axis=0)
        assert len(distinct) == len(want)
        assert np.array_equal(distinct[np.lexsort(distinct.T[::-1])], want)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_uint8_rows(self, width):
        # up to 8 bytes a row is keyed as one integer, from 9 bytes sorted
        rng = np.random.default_rng(width)
        rows = rng.integers(0, 3, size=(200, width)).astype(np.uint8)
        self._check(rows)
        self._check(np.concatenate([rows, rows[::7]]))

    @pytest.mark.parametrize("width", range(1, 7))
    def test_int64_rows(self, width):
        rng = np.random.default_rng(width)
        rows = rng.integers(-2, 3, size=(300, width)) * np.int64(2) ** 40
        rows[::5] += 1
        self._check(rows)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_one_row_and_repeats(self, dtype, width):
        row = np.arange(width, dtype=dtype)[None]
        self._check(row)
        distinct, inverse = data._distinct_rows(np.repeat(row, 4, axis=0))
        assert np.array_equal(distinct, row) and inverse.tolist() == [0, 0, 0, 0]
