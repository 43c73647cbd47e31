import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from pcmc import cli, data, evaluate, model, serialize
from pcmc.cli import main
from pcmc.luce import MnlModel
from pcmc.model import PcmcModel
from pcmc.param import BladeChest


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture()
def synth_files(tmp_path):
    data_path = str(tmp_path / "train.txt")
    model_path = str(tmp_path / "gen.json")
    code = main(["synth", "--regime", "randq", "--n", "4",
                 "--samples", "400", "--seed", "7",
                 "--out", data_path, "--model-out", model_path])
    assert code == 0
    return data_path, model_path


class TestSynth:
    def test_outputs_load(self, synth_files):
        data_path, model_path = synth_files
        ds = data.load(data_path)
        assert ds.n == 4
        assert len(ds) == 400
        gen = serialize.load_model(model_path)
        assert isinstance(gen, PcmcModel)

    def test_deterministic_bytes(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("a.txt", "b.txt")]
        for p in paths:
            assert main(["synth", "--regime", "mnl", "--n", "5",
                         "--samples", "200", "--seed", "3",
                         "--out", p]) == 0
        assert _read(paths[0]) == _read(paths[1])

    def test_bladechest_regime(self, tmp_path):
        model_path = str(tmp_path / "bc.json")
        assert main(["synth", "--regime", "bladechest", "--n", "4",
                     "--samples", "50", "--seed", "1",
                     "--out", str(tmp_path / "d.txt"),
                     "--model-out", model_path]) == 0
        assert isinstance(serialize.load_model(model_path), BladeChest)

    def test_triples_in_combinations_order(self):
        for n in range(3, 13):
            assert [cli._triple(n, k) for k in range(math.comb(n, 3))] \
                == list(itertools.combinations(range(n), 3))

    def test_menus_without_every_triple(self, tmp_path):
        # 1,313,400 triples at n=200; listing them all traced about 90 MB
        tracemalloc.start()
        try:
            assert main(["synth", "--regime", "mnl", "--n", "200",
                         "--samples", "50", "--seed", "1",
                         "--out", str(tmp_path / "d.txt")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert len(data.load(str(tmp_path / "d.txt")).distinct_sets) <= 25

    def test_n_too_small(self, tmp_path):
        assert main(["synth", "--regime", "randq", "--n", "2",
                     "--samples", "10", "--seed", "0",
                     "--out", str(tmp_path / "d.txt")]) == 1


class TestFit:
    def test_pcmc_with_report(self, synth_files, tmp_path):
        data_path, _ = synth_files
        out = str(tmp_path / "fit.json")
        report = str(tmp_path / "report.json")
        assert main(["fit", "--data", data_path, "--model", "pcmc",
                     "--out", out, "--report", report]) == 0
        fitted = serialize.load_model(out)
        assert isinstance(fitted, PcmcModel)
        rep = json.loads(_read(report))
        assert rep["converged"] in (True, False)
        assert rep["loglik"] <= 0.0

    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    def test_fits_through_fitspec(self, synth_files, tmp_path, monkeypatch, kind):
        # the learning curve's FitSpec fits every kind, with the flags' values
        calls, fit = [], evaluate.FitSpec._fit

        def spy(spec, dataset, seed):
            calls.append((spec, seed))
            return fit(spec, dataset, seed)

        monkeypatch.setattr(evaluate.FitSpec, "_fit", spy)
        data_path, _ = synth_files
        assert main(["fit", "--data", data_path, "--model", kind, "--seed", "3",
                     "--alpha", "0.2", "--k", "2", "--d", "3", "--variant", "inner",
                     "--max-iters", "7", "--out", str(tmp_path / "m.json")]) == 0
        assert calls == [(evaluate.FitSpec(kind=kind, alpha=0.2, k=2, d=3,
                                           variant="inner", max_iters=7), 3)]

    def test_mnl(self, synth_files, tmp_path):
        data_path, _ = synth_files
        out = str(tmp_path / "mnl.json")
        assert main(["fit", "--data", data_path, "--model", "mnl",
                     "--out", out]) == 0
        assert isinstance(serialize.load_model(out), MnlModel)

    def test_no_report_skips_the_report_loglik(self, synth_files, tmp_path,
                                               monkeypatch):
        data_path, _ = synth_files
        with_report = str(tmp_path / "report.json")
        assert main(["fit", "--data", data_path, "--model", "mnl",
                     "--out", str(tmp_path / "a.json"),
                     "--report", with_report]) == 0
        fitted = serialize.load_model(str(tmp_path / "a.json"))
        assert _read(with_report) == serialize.dumps({
            "loglik": model.log_likelihood(fitted, data.load(data_path)),
            "n_observations": 400})

        def forbidden(*args, **kwargs):
            raise AssertionError("report log-likelihood computed without --report")

        monkeypatch.setattr(model, "log_likelihood", forbidden)
        assert main(["fit", "--data", data_path, "--model", "mnl",
                     "--out", str(tmp_path / "b.json")]) == 0
        assert _read(str(tmp_path / "b.json")) == _read(str(tmp_path / "a.json"))

    def test_deterministic_model_bytes(self, synth_files, tmp_path):
        data_path, _ = synth_files
        outs = [str(tmp_path / name) for name in ("f1.json", "f2.json")]
        for out in outs:
            assert main(["fit", "--data", data_path, "--model", "pcmc",
                         "--out", out, "--seed", "5"]) == 0
        assert _read(outs[0]) == _read(outs[1])


    def test_report_failure_writes_nothing(self, synth_files, tmp_path,
                                           monkeypatch):
        data_path, _ = synth_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # a non-finite value makes the report's serialization raise
        monkeypatch.setattr(serialize, "fit_report_to_dict",
                            lambda report: {"loglik": float("nan")})
        with pytest.raises(ValueError):
            main(["fit", "--data", data_path, "--model", "pcmc",
                  "--out", str(out_dir / "fit.json"),
                  "--report", str(out_dir / "report.json")])
        assert list(out_dir.iterdir()) == []

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.json"
        serialize.write_text(str(path), "old\n")
        with pytest.raises(UnicodeEncodeError):
            serialize.write_text(str(path), "new \ud800\n")
        assert _read(str(path)) == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failed_dataset_save_keeps_old_files(self, tmp_path, monkeypatch):
        path = tmp_path / "data.txt"
        old = data.ChoiceDataset(n=2, observations=((0, (0, 1)),),
                                 labels=("a", "b"))
        data.save(old, str(path))
        before = {p.name: _read(str(p)) for p in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", fail)
        new = data.ChoiceDataset(n=2, observations=((1, (0, 1)),) * 3,
                                 labels=("c", "d"))
        with pytest.raises(OSError):
            data.save(new, str(path))
        assert {p.name: _read(str(p)) for p in tmp_path.iterdir()} == before


class TestEval:
    def test_report_written(self, synth_files, tmp_path):
        data_path, model_path = synth_files
        out = str(tmp_path / "err.json")
        assert main(["eval", "--model-file", model_path,
                     "--data", data_path, "--out", out]) == 0
        report = json.loads(_read(out))
        assert 0.0 <= report["error"] <= 2.0
        assert report["n_test"] == 400
        assert report["per_set_errors"]


class TestCurve:
    def test_csv_written(self, synth_files, tmp_path):
        data_path, _ = synth_files
        out = str(tmp_path / "curve.csv")
        assert main(["curve", "--data", data_path, "--models", "mnl",
                     "--fractions", "0.5,1.0", "--permutations", "2",
                     "--seed", "9", "--out", out]) == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == "model,fraction,mean_error,std_error,permutations"
        assert len(lines) == 3

    def test_bad_fraction(self, synth_files, tmp_path):
        data_path, _ = synth_files
        assert main(["curve", "--data", data_path, "--models", "mnl",
                     "--fractions", "0.5,1.5", "--permutations", "2",
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_unknown_model_kind(self, synth_files, tmp_path):
        data_path, _ = synth_files
        assert main(["curve", "--data", data_path, "--models", "elo",
                     "--fractions", "0.5", "--permutations", "2",
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_repeated_model_kind(self, synth_files, tmp_path, capsys):
        data_path, _ = synth_files
        assert main(["curve", "--data", data_path, "--models", "mnl,mnl",
                     "--fractions", "0.5", "--permutations", "2",
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


class TestAudit:
    def test_audit_pcmc(self, synth_files, tmp_path):
        _, model_path = synth_files
        out = str(tmp_path / "audit.json")
        assert main(["audit", "--model-file", model_path,
                     "--out", out]) == 0
        report = json.loads(_read(out))
        names = {check["name"] for check in report["checks"]}
        assert {"regularity", "uniform_expansion", "cyclic_triplets"} <= names


class TestFailureCodes:
    def test_missing_data_file(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.txt"),
                     "--model", "mnl",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_malformed_data_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("zero,0 1\n")
        assert main(["fit", "--data", str(bad), "--model", "mnl",
                     "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("text", ["0,0 0\n", "0,0\n", "-1,0 1\n",
                                      "# n=2\n0,0 2\n", "0,0 1\n2,0 1\n"])
    def test_invalid_observation(self, tmp_path, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["fit", "--data", str(bad), "--model", "mnl",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_unsmoothed_disconnected_data(self, tmp_path):
        # item 2 appears but never wins; without smoothing the
        # comparison graph has no edge into it
        never = tmp_path / "never.txt"
        never.write_text("0,0 2\n1,1 2\n0,0 1\n1,0 1\n" * 5)
        assert main(["fit", "--data", str(never), "--model", "mnl",
                     "--alpha", "0.0",
                     "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("kind", ["pcmc", "mnl", "mmnl", "bladechest"])
    def test_negative_alpha(self, synth_files, tmp_path, kind, capsys):
        # not finite is as bad as negative
        for alpha in ("-1", "nan", "inf"):
            assert main(["fit", "--data", synth_files[0], "--model", kind,
                         "--alpha", alpha, "--out", str(tmp_path / "m.json"),
                         "--report", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err.startswith("data error: ")
            assert not (tmp_path / "m.json").exists()
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_curve_bad_alpha(self, synth_files, tmp_path, alpha):
        out = tmp_path / "c.csv"
        assert main(["curve", "--data", synth_files[0], "--models", "mnl",
                     "--fractions", "0.5", "--permutations", "1",
                     "--alpha", alpha, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"labels": "ab"}',
                                      '{"labels": ["a"]}'])
    def test_malformed_labels_sidecar(self, tmp_path, text, capsys):
        path = tmp_path / "d.txt"
        path.write_text("0,0 1\n1,0 1\n")
        (tmp_path / "d.txt.labels.json").write_text(text)
        assert main(["fit", "--data", str(path), "--model", "mnl",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text", ['{"model": "mnl"}',
                                      '{"model": "pcmc", "n": 3, "rates": [0, 1]}',
                                      '{"model": "pcmc", "n": 2, "rates": [0, 0.2, 0.3, 0]}'])
    def test_malformed_model_file(self, synth_files, tmp_path, text, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(text)
        for argv in (["eval", "--data", synth_files[0]], ["audit"]):
            out = tmp_path / "out.json"
            assert main(argv + ["--model-file", str(model_path),
                                "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("data error: ")
            assert not out.exists()

    def test_data_file_not_utf8(self, synth_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0,0 1\n\xff,0 1\n")
        for argv in (["fit", "--model", "mnl"],
                     ["eval", "--model-file", synth_files[1]]):
            out = tmp_path / "out.json"
            assert main(argv + ["--data", str(bad), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("data error: line 2: ")
            assert not out.exists()

    def test_model_file_not_utf8(self, synth_files, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_bytes(b"\xff\xfe")
        for argv in (["eval", "--data", synth_files[0]], ["audit"]):
            out = tmp_path / "out.json"
            assert main(argv + ["--model-file", str(model_path),
                                "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("data error: line 1: ")
            assert not out.exists()

    def test_model_rates_overflow_row_sums(self, synth_files, tmp_path, capsys):
        # every rate is finite, but each row sums past the largest float
        model_path = tmp_path / "m.json"
        model_path.write_text('{"model": "pcmc", "n": 3, "rates": '
                              '[0, 1e308, 1e308, 1e308, 0, 1e308, 1e308, 1e308, 0]}')
        for argv in (["eval", "--data", synth_files[0]], ["audit"]):
            out = tmp_path / "out.json"
            assert main(argv + ["--model-file", str(model_path),
                                "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "row sums" in err
            assert not out.exists()

    def test_missing_required_flag(self, tmp_path):
        assert main(["fit", "--model", "mnl",
                     "--out", str(tmp_path / "m.json")]) == 1

    def test_unknown_flag(self):
        assert main(["audit", "--bogus", "x"]) == 1

    def test_unknown_command(self):
        assert main(["train"]) == 1
