import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcmc import axioms, data, evaluate, serialize
from pcmc.ctmc import RateMatrix
from pcmc.data import ChoiceDataset
from pcmc.errors import NonpositiveGamma, ParseError
from pcmc.evaluate import FitSpec
from pcmc.luce import MmnlModel, MnlModel
from pcmc.model import FitReport, PcmcModel, fit
from pcmc.param import BladeChest

from _support import cyclic_matrix, reference_dumps


class TestDumps:
    def test_plain_values(self):
        assert serialize.dumps({"a": 1, "b": [1.5, "x", None, True]}) \
            == '{"a": 1, "b": [1.5, "x", null, true]}\n'

    def test_float_precision_round_trips(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -1234.56789]
        text = serialize.dumps(values)
        back = json.loads(text)
        assert back == values

    def test_negative_zero_normalized(self):
        assert serialize.dumps(-0.0) == "0\n"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps(float("nan"))
        with pytest.raises(ValueError):
            serialize.dumps([float("inf")])

    def test_deterministic_bytes(self):
        payload = {"rates": [0.1 + 0.2, 1e-17], "n": 2}
        assert serialize.dumps(payload) == serialize.dumps(payload)

    def test_trailing_newline(self):
        assert serialize.dumps([]).endswith("\n")


# Keys a template must escape or quote: a quote, non-ASCII, '%' signs.
_KEYS = st.one_of(st.text(max_size=4),
                  st.sampled_from(["item", '"q"', "\u00e9\u4e2d", "%s", "%%", "a%"]))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INTS = st.integers(-2 ** 70, 2 ** 70)
_LEAVES = st.one_of(
    _INTS, st.booleans(), st.none(), _FINITE, st.just(-0.0),
    st.text(max_size=6), st.sampled_from(['say "hi"', "caf\u00e9", "\\", "%d"]),
    _FINITE.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.lists(_FINITE, max_size=3).map(np.array),
    st.lists(_INTS, max_size=3).map(np.array),
    st.lists(_INTS, max_size=4), st.lists(st.one_of(_INTS, st.booleans()), max_size=3))


_FLAT = st.one_of(_INTS, _FINITE, st.lists(_INTS, max_size=4))


def _alias(k):
    """A key equal to k that prints differently, where there is one."""
    if type(k) is bool:
        return int(k)
    return float(k) if type(k) is int else k


@st.composite
def _record_lists(draw, values):
    """A list (or tuple) of dicts: mostly with one key order, some with
    the keys reordered, dropped, extended or swapped for equal keys that
    print differently (1 for True, 1.0 for 1), some items not dicts.
    Values are mostly the kinds a record template takes."""
    keys = draw(st.lists(st.one_of(_KEYS, _KEYS, st.booleans(), st.integers(-2, 2)),
                         min_size=1, max_size=4, unique=True))
    cell = st.one_of(_FLAT, _FLAT, _FLAT, values)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["same", "same", "same", "mixed", "alias", "other"]))
        if shape == "other":
            rows.append(draw(values))
            continue
        if shape == "same":
            order = keys
        elif shape == "alias":
            order = [_alias(k) for k in keys]
        else:
            order = draw(st.permutations(keys + ["extra"]))[:draw(st.integers(0, len(keys) + 1))]
        rows.append({k: draw(cell) for k in order})
    return tuple(rows) if draw(st.booleans()) else rows


_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.one_of(_KEYS, _INTS), children, max_size=4),
    _record_lists(children)), max_leaves=40)


class TestDumpsOracle:
    """dumps against reference_dumps, the serializer it replaced."""

    @given(_TREES)
    def test_matches_reference_bytes(self, obj):
        assert serialize.dumps(obj) == reference_dumps(obj)

    @given(_record_lists(_LEAVES))
    def test_record_lists_match_reference_bytes(self, rows):
        assert serialize.dumps({"rows": rows}) == reference_dumps({"rows": rows})

    def test_bool_in_a_record_is_true_not_one(self):
        rows = [{"a": 1, "b": True, "c": [1, 2]}, {"a": True, "b": 1, "c": [True]}]
        assert serialize.dumps(rows) == (
            '[{"a": 1, "b": true, "c": [1, 2]}, {"a": true, "b": 1, "c": [true]}]\n')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_in_a_record_raises(self, bad):
        rows = [{"a": 1, "p": 0.5}, {"a": 2, "p": bad}]
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps(rows)

    def test_numpy_bool_raises(self):
        for obj in (np.bool_(True), [{"a": 1}, {"a": np.bool_(False)}]):
            with pytest.raises(TypeError):
                serialize.dumps(obj)

    @pytest.mark.parametrize("rows", [
        [{"a": 1, "p": 0.5}, {"a": True, "p": 0.25}],
        [{"a": 1, "p": 0.5}, {"a": 2, "p": np.float64(0.25)}],
        [{"a": 1, "s": [0, 1]}, {"a": 2, "s": [1, True]}],
        [{"a": 1, "p": 0.5}, {"p": 0.25, "a": 2}],
        [{"a": 1, "p": 0.5}, {"a": 2}],
        [{"a": 1, "p": 0.5}, [1, 2]],
        [{"a": 1, "s": (0, 1)}, {"a": 2, "s": (1, 2.0)}],
        [{"a": 1, "t": "x"}],
        [{}, {}],
        [],
    ])
    def test_column_pass_declines(self, rows):
        # lists of records, however irregular, take the general path,
        # which writes the reference bytes
        assert serialize.dumps({"rows": rows}) == reference_dumps({"rows": rows})

    @pytest.mark.parametrize("rows", [
        # one record, -0.0 in both probabilities
        [([7], [[0, 1]], [[0, 1, 2]], [0], [1], [-0.0], [-0.0])],
        # two failing pairs sharing their sets across records, then a
        # wider group
        [([0, 2], [[0, 1], [1, 2]], [[0, 1, 2], [1, 2, 3]], [0, 0, 1], [0, 1, 2],
          [0.25, 0.0, 1e-300], [0.5, 1.0 / 3.0, 0.75]),
         ([5], [[0, 1, 2]], [[0, 1, 2, 3]], [0, 0], [0, 2], [0.1, 0.2], [0.3, -0.0])],
        # a group without failures between two with one
        [([0], [[0, 1]], [[0, 1, 2]], [0], [0], [0.25], [0.5]),
         ([], np.zeros((0, 2)), np.zeros((0, 4)), [], [], [], []),
         ([9], [[2, 2 ** 62]], [[0, 2, 2 ** 62]], [0], [2 ** 62], [0.5], [0.75])],
        # no records at all
        [],
    ])
    def test_column_pass_writes_reference_bytes(self, rows):
        # the audit's violation columns against the reference bytes of
        # the same records as a list of dicts
        records = _violation_columns(rows)
        assert serialize.dumps(records) == reference_dumps(list(records))
        assert "-0" not in serialize.dumps(records)

    def test_nan_in_second_record_names_it(self):
        rows = [{"a": 1, "p": 0.5}, {"a": 2, "p": float("nan")}]
        records = _violation_columns([([0], [[0, 1]], [[0, 1, 2]], [0, 0], [0, 1],
                                       [0.25, 0.5], [0.5, float("nan")])])
        for obj in (rows, records):
            with pytest.raises(ValueError) as err:
                serialize.dumps(obj)
            assert str(err.value) == "cannot serialize non-finite value nan"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_audit_reports_at_workload_scale(self, seed):
        # the benchmark's audit workload: thousands of violation records
        for m in (PcmcModel(q=data.gen_random_q(10, seed)),
                  data.gen_bladechest_circle(10, seed)):
            report = axioms.run_audit(m)
            regularity, *rest = report["checks"]
            violations = list(regularity["violations"])
            assert len(violations) > 1000
            plain = {**report, "checks": [{**regularity, "violations": violations}, *rest]}
            assert serialize.dumps(report) == reference_dumps(plain)


def _violation_columns(blocks):
    """axioms.ViolationColumns from blocks given as lists: failing pair
    numbers, their subsets and supersets, then per record the pair's row,
    the item and the two probabilities."""
    return axioms.ViolationColumns([axioms._Failures(
        np.array(pairs, np.int64), np.array(a, np.int64), np.array(b, np.int64),
        np.array(row, np.int64), np.array(item, np.int64), np.array(lo, float),
        np.array(hi, float)) for pairs, a, b, row, item, lo, hi in blocks])


class TestModelRoundTrip:
    def test_pcmc(self, tmp_path):
        m = PcmcModel(q=cyclic_matrix(0.7))
        path = str(tmp_path / "m.json")
        serialize.save_model(m, path)
        back = serialize.load_model(path)
        assert isinstance(back, PcmcModel)
        assert np.array_equal(back.q.rates, m.q.rates)

    def test_mnl(self, tmp_path):
        m = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        path = str(tmp_path / "m.json")
        serialize.save_model(m, path)
        # The file stores the model's weights verbatim; the constructor
        # renormalizes on load, which can shift entries by one ulp.
        stored = json.loads(open(path).read())
        assert stored["gamma"] == list(m.gamma)
        back = serialize.load_model(path)
        assert isinstance(back, MnlModel)
        assert np.allclose(back.gamma, m.gamma, rtol=0, atol=1e-15)

    def test_mmnl(self, tmp_path):
        m = MmnlModel(
            weights=np.array([0.25, 0.75]),
            components=(MnlModel(gamma=np.array([0.9, 0.1])),
                        MnlModel(gamma=np.array([0.2, 0.8]))))
        path = str(tmp_path / "m.json")
        serialize.save_model(m, path)
        back = serialize.load_model(path)
        assert isinstance(back, MmnlModel)
        assert np.allclose(back.weights, m.weights, rtol=0, atol=1e-15)
        for mine, theirs in zip(m.components, back.components):
            assert np.allclose(mine.gamma, theirs.gamma, rtol=0, atol=1e-15)

    def test_bladechest(self, tmp_path):
        m = data.gen_bladechest_circle(4, seed=3)
        path = str(tmp_path / "m.json")
        serialize.save_model(m, path)
        back = serialize.load_model(path)
        assert isinstance(back, BladeChest)
        assert back.variant == m.variant
        assert back.d == m.d
        assert np.array_equal(back.blades, m.blades)
        assert np.array_equal(back.chests, m.chests)

    def test_numpy_int_sizes_round_trip(self):
        # the reader takes only JSON integers for n and d, so the dict
        # form writes a size given as a numpy int as an int
        for m in (PcmcModel(q=RateMatrix(n=np.int64(2), rates=[[0.0, 1.0], [1.0, 0.0]])),
                  BladeChest(n=np.int64(2), d=np.int64(1), blades=[[0.0], [1.0]],
                             chests=[[1.0], [0.0]])):
            back = serialize.model_from_dict(serialize.model_to_dict(m))
            assert back.probabilities((0, 1)).mass.tolist() \
                == m.probabilities((0, 1)).mass.tolist()

    @pytest.mark.parametrize("obj", [object(), RateMatrix(n=2, rates=np.ones((2, 2)))])
    def test_unknown_type_not_serialized(self, obj):
        with pytest.raises(TypeError, match="cannot serialize model of type"):
            serialize.model_to_dict(obj)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "mystery"}\n')
        with pytest.raises(ParseError):
            serialize.load_model(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            serialize.load_model(str(path))

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ParseError):
            serialize.load_model(str(path))

    @pytest.mark.parametrize("payload", [
        {"model": "mnl"},
        {"model": "pcmc", "rates": [0.0]},
        {"model": "pcmc", "n": 3, "rates": [0.0, 1.0]},
        {"model": "pcmc", "n": 2, "rates": [0.0, 0.2, 0.3, 0.0]},
        {"model": "pcmc", "n": [2], "rates": [0.0]},
        {"model": "mmnl", "weights": [1.0], "components": 5},
        {"model": "bladechest", "d": 2, "blades": 1.0, "chests": 1.0},
        {"model": "pcmc", "n": 2.9, "rates": [0, 1, 1, 0]},
        {"model": "pcmc", "n": True, "rates": [0]},
        {"model": "pcmc", "n": "2", "rates": [0, 1, 1, 0]},
        {"model": "pcmc", "n": 2, "rates": [0, "1", "1", 0]},
        {"model": "mnl", "gamma": ["0.5", "0.5"]},
        {"model": "mnl", "gamma": [True, True]},
        {"model": "mnl", "gamma": [0.5, None]},
        {"model": "mmnl", "weights": ["1"], "components": [[0.5, 0.5]]},
        {"model": "mmnl", "weights": [1], "components": [["0.5", "0.5"]]},
        {"model": "bladechest", "d": 1.7, "blades": [[0], [1]], "chests": [[1], [0]]},
        {"model": "bladechest", "d": "1", "blades": [[0], [1]], "chests": [[1], [0]]},
        {"model": "bladechest", "d": 1, "blades": [["0"], ["1"]], "chests": [[1], [0]]},
    ])
    def test_malformed_model(self, tmp_path, payload):
        # a missing key, a wrong length or shape, a non-canonical matrix;
        # a size that is not a JSON integer or a number that is not a JSON
        # number, which a cast would have coerced
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            serialize.load_model(str(path))

    def test_library_errors_pass_through(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "mnl", "gamma": [0.5, -0.5]}')
        with pytest.raises(NonpositiveGamma):
            serialize.load_model(str(path))


class TestReports:
    def test_fit_report(self):
        rows = [(0, (0, 1))] * 6 + [(1, (0, 1))] * 4
        report = fit(ChoiceDataset(n=2, observations=tuple(rows)))
        d = serialize.fit_report_to_dict(report)
        assert set(d) == {"loglik", "iterations", "converged",
                          "constraint_violation", "params"}
        assert d["params"]["model"] == "pcmc"
        text = serialize.dumps(d)
        assert json.loads(text)["loglik"] == pytest.approx(report.loglik)

    def test_error_report_keys_are_joined_sets(self):
        rows = [(0, (0, 1))] * 2 + [(2, (0, 1, 2))]
        test = ChoiceDataset(n=3, observations=tuple(rows))
        m = MnlModel(gamma=np.array([0.4, 0.3, 0.3]))
        report = evaluate.prediction_error(m, test)
        d = serialize.error_report_to_dict(report)
        assert sorted(d["per_set_errors"]) == ["0 1", "0 1 2"]
        assert d["n_test"] == 3

    def test_curve_csv_shape(self):
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1, 2), (0, 1)], count=300, seed=60)
        curve = evaluate.learning_curve(
            ds, [FitSpec(kind="mnl")], fractions=(0.5, 1.0), permutations=2,
            seed=1)
        text = serialize.curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "model,fraction,mean_error,std_error,permutations"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "mnl"
        assert float(first[1]) == 0.5
        assert first[4] == "2"
