import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmc import data, evaluate, luce, model, param
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import (
    DegenerateSplit,
    EmptyDataset,
    IndexOutOfRange,
    InvalidChoice,
    NegativeAlpha,
    ParseError,
)
from pcmc.luce import MnlModel
from pcmc.model import PcmcModel

from _support import cyclic_rates, plain_tally


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


    def test_invalid_choice_numbers_the_observation(self):
        with pytest.raises(InvalidChoice) as err:
            make_dataset([(0, (0, 1)), (2, (1, 0))], n=3)
        assert err.value.line_number == 2

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

    def test_single_observation(self):
        t = data.counts(make_dataset([(1, (0, 1))], n=2))
        assert t.set_counts == {(0, 1): 1}

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
    def test_smoothed_matches_smooth(self, seed):
        n, rows = _repeated_menus(seed)
        ds = make_dataset(rows, n=n)
        tables = data.smooth(data.counts(ds), 0.3)
        for idx, w in data._smoothed(data._set_terms(ds), 0.3):
            for s, counts in zip(map(tuple, idx.tolist()), w.tolist()):
                assert counts == [tables.choice_counts[s][i] for i in s]

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


class TestSmooth:
    def test_identity_at_zero(self):
        t = data.counts(make_dataset([(0, (0, 1))], n=2))
        s = data.smooth(t, 0.0)
        assert s.choice_counts == t.choice_counts
        assert s.set_counts == t.set_counts

    def test_arithmetic(self):
        ds = make_dataset([(0, (0, 1))] * 3 + [(1, (0, 1))], n=2)
        s = data.smooth(data.counts(ds), 5.0)
        assert s.choice_counts[(0, 1)] == {0: 8.0, 1: 6.0}
        assert s.set_counts[(0, 1)] == 14.0

    def test_negative_alpha(self):
        t = data.counts(make_dataset([(0, (0, 1))], n=2))
        with pytest.raises(NegativeAlpha):
            data.smooth(t, -0.5)


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

    def test_count_validation(self):
        m = MnlModel(gamma=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            data.sample(m, [(0, 1)], count=0, seed=0)


class TestGenerators:
    def test_gen_random_q_canonical(self):
        q = data.gen_random_q(10, seed=1)
        assert q.n == 10
        assert q.is_canonical
        assert q.meta.get("generator") == "uniform"
        assert "pairs_rescaled" in q.meta

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

    def test_generators_deterministic(self):
        a = data.gen_random_q(4, seed=11)
        b = data.gen_random_q(4, seed=11)
        assert np.array_equal(a.rates, b.rates)


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
        # the array parser accepts the file but its third record fails
        # validation: the error names that record's file line, and the
        # line loop never reads the file
        path = tmp_path / "data.txt"
        path.write_text("# n=3\n0,0 1\n\n# note\n1,1 2\n2,0 1\n0,0 2\n")
        columns, line_loop = data._FORMATS["chosen-set-v1"]
        columns, line_loop = mock.Mock(wraps=columns), mock.Mock(wraps=line_loop)
        with mock.patch.dict(data._FORMATS, {"chosen-set-v1": (columns, line_loop)}):
            with pytest.raises(InvalidChoice) as err:
                data.load(str(path))
        assert err.value.line_number == 6
        assert columns.call_count == 1 and line_loop.call_count == 0

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0,0 1\n")
        with pytest.raises(ValueError):
            data.load(str(path), format="nope")


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


def _reference_load(path, fmt):
    """load with the array parser declining every file, so the line
    loop reads it: the reference for load's array path."""
    line_loop = data._FORMATS[fmt][1]
    with mock.patch.dict(data._FORMATS, {fmt: (lambda text: None, line_loop)}):
        return data.load(path, format=fmt)


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
                _outcome(lambda: _reference_load(path, fmt)))


# tokens the array path must decline or read as int() does
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
    """load parses whole arrays and falls back to the line loop; on any
    file it returns what the line loop returns, or raises the same error
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
        # plain files never reach the line loop
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
