import ast
import glob
import itertools
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pcmc
from pcmc import data, luce
from pcmc.ctmc import RateMatrix, RestrictedGenerator, stationary
from pcmc.data import ChoiceDataset
from pcmc.errors import (
    InvalidK,
    NegativeAlpha,
    NonpositiveGamma,
    NoConvergence,
    NotConnected,
    OptimizerFailure,
    SameItem,
)
from pcmc.luce import MmnlModel, MnlModel
from pcmc.model import log_likelihood

from _support import central_gradient, mixture_loglik, random_terms


def pair_dataset(wins0, wins1):
    rows = [(0, (0, 1))] * wins0 + [(1, (0, 1))] * wins1
    return ChoiceDataset(n=2, observations=tuple(rows))


class TestMnlModel:
    def test_normalized_storage(self):
        m = MnlModel(gamma=np.array([2.0, 1.0, 1.0]))
        assert abs(m.gamma.sum() - 1.0) <= 1e-12

    def test_positive_required(self):
        with pytest.raises(Exception):
            MnlModel(gamma=np.array([1.0, 0.0]))
        # NaN, inf, and weights whose sum overflows (they were normalised to all zeros)
        for gamma in ([np.nan, 1.0], [np.inf, 1.0], [1e308] * 4):
            with pytest.raises(NonpositiveGamma):
                MnlModel(gamma=np.array(gamma))

    @pytest.mark.parametrize("gamma", [[], np.ones((2, 2)), 1.0])
    def test_non_vector_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a nonempty vector"):
            MnlModel(gamma=gamma)

    def test_btl_pair(self):
        assert luce.btl_pair(MnlModel(gamma=np.array([2.0, 1.0])), 0, 1) \
            == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert luce.btl_pair(MnlModel(gamma=np.array([3.3, 3.3])), 0, 1) \
            == pytest.approx(0.5, abs=1e-15)
        m = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        assert luce.btl_pair(m, 0, 2) == pytest.approx(6.0 / 7.0, abs=1e-15)

    def test_btl_pair_float_id_rejected_not_truncated(self):
        # (0, 1.5) was once read as (0, 1)
        m = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        with pytest.raises(ValueError, match="alternative 1.5 is not an integer id"):
            luce.btl_pair(m, 0, 1.5)
        assert luce.btl_pair(m, np.int64(0), np.uint8(2)) == pytest.approx(6.0 / 7.0)

    def test_btl_pair_same_item(self):
        with pytest.raises(SameItem):
            luce.btl_pair(MnlModel(gamma=np.array([1.0, 1.0])), 1, 1)

    def test_probabilities(self):
        m = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        assert np.allclose(m.probabilities((0, 1, 2)).mass, [0.6, 0.3, 0.1],
                           atol=1e-15)
        assert np.allclose(m.probabilities((1, 2)).mass, [0.75, 0.25],
                           atol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_iia_exact(self, seed):
        # conditioning the full-set distribution on a subset changes nothing
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m = MnlModel(gamma=rng.uniform(0.1, 5.0, size=n))
        full = m.probabilities(tuple(range(n)))
        size = int(rng.integers(2, n))
        sub = tuple(sorted(rng.choice(n, size=size, replace=False)))
        cond = np.array([full.prob(i) for i in sub])
        cond /= cond.sum()
        assert np.abs(cond - m.probabilities(sub).mass).max() <= 1e-12


# 2 is offered in three sets and never chosen
_NEVER_WINS = [(0, (0, 1)), (1, (0, 1)), (0, (0, 2)), (1, (1, 2)), (0, (0, 1, 2))] * 4


class TestFitMnl:
    def test_symmetric(self):
        m = luce.fit_mnl(pair_dataset(1, 1))
        assert np.allclose(m.gamma, [0.5, 0.5], atol=1e-9)

    def test_three_to_one(self):
        # closed-form two-item MLE: win share
        m = luce.fit_mnl(pair_dataset(3, 1))
        assert np.allclose(m.gamma, [0.75, 0.25], atol=1e-8)

    def test_recovers_generator(self):
        gen = MnlModel(gamma=np.array([0.6, 0.3, 0.1]))
        ds = data.sample(gen, [(0, 1, 2)], count=50_000, seed=21)
        m = luce.fit_mnl(ds)
        assert np.abs(m.gamma - gen.gamma).sum() <= 0.02

    def test_fixed_point_is_stationary(self):
        # rebuild the data-weighted chain at the estimate and solve it
        # independently; the estimate must be its stationary distribution
        gen = MnlModel(gamma=np.array([0.45, 0.35, 0.2]))
        sets = [(0, 1), (1, 2), (0, 1, 2)]
        ds = data.sample(gen, sets, count=5_000, seed=22)
        gamma = luce.fit_mnl(ds).gamma

        n = ds.n
        chain = np.zeros((n, n))
        for chosen, members in ds.observations:
            denom = sum(gamma[j] for j in members)
            for j in members:
                if j != chosen:
                    chain[j, chosen] += 1.0 / denom
        gen_matrix = chain.copy()
        np.fill_diagonal(gen_matrix, 0.0)
        np.fill_diagonal(gen_matrix, -gen_matrix.sum(axis=1))
        pi = stationary(RestrictedGenerator(subset=tuple(range(n)),
                                            matrix=gen_matrix))
        assert np.abs(pi.mass - gamma).sum() <= 1e-6

    def test_not_connected_when_an_item_never_wins(self):
        rows = [(0, (0, 1)), (0, (0, 2))]
        ds = ChoiceDataset(n=3, observations=tuple(rows))
        with pytest.raises(NotConnected):
            luce.fit_mnl(ds, alpha=0.0)

    def test_smoothing_restores_connectivity(self):
        rows = [(0, (0, 1)), (0, (0, 2))]
        ds = ChoiceDataset(n=3, observations=tuple(rows))
        m = luce.fit_mnl(ds, alpha=0.1)
        assert m.gamma.min() > 0
        assert m.gamma[0] > max(m.gamma[1], m.gamma[2])

    def test_disjoint_set_families_stay_disconnected(self):
        # smoothing only touches observed sets, so two menus sharing no
        # alternative cannot be connected by any alpha
        rows = [(0, (0, 1)), (2, (2, 3))]
        ds = ChoiceDataset(n=4, observations=tuple(rows))
        with pytest.raises(NotConnected):
            luce.fit_mnl(ds, alpha=0.1)

    @pytest.mark.parametrize("alpha", [1e-13, 1e-15])
    def test_not_connected_below_the_kernel_edge(self, alpha):
        # 2 never wins; its smoothed rates, 1.5 * alpha, are at or below
        # ctmc.TOL_EDGE, where the stationary kernel sees no edge
        with pytest.raises(NotConnected):
            luce.fit_mnl(ChoiceDataset(n=3, observations=_NEVER_WINS), alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e-9, 1e-11])
    def test_weight_of_an_item_that_never_wins(self, alpha):
        # as alpha -> 0 the weights of 0 and 1 tend to 2/3 and 1/3, and
        # 2's score equation, 3 * alpha = gamma_2 * 4 * (3/2 + 3 + 1),
        # gives gamma_2 = 3 * alpha / 22
        ds = ChoiceDataset(n=3, observations=_NEVER_WINS)
        gamma = luce.fit_mnl(ds, alpha=alpha).gamma
        assert gamma[2] == pytest.approx(3 * alpha / 22, rel=1e-3)

    def test_no_convergence(self):
        ds = pair_dataset(3, 1)
        with pytest.raises(NoConvergence):
            luce.fit_mnl(ds, tol=1e-15, max_iters=1)

    @pytest.mark.parametrize("max_iters", [2.5, "3", 0, -3])
    def test_iteration_cap_rejected(self, max_iters):
        # 2.5 once died in range(), and -3 raised "no convergence after
        # -3 iterations"
        with pytest.raises(InvalidK, match="max_iters must be"):
            luce.fit_mnl(pair_dataset(3, 1), max_iters=max_iters)

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            luce.fit_mnl(pair_dataset(3, 1), alpha=-0.5)


def _fresh_modules(code):
    """The modules loaded after code runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pcmc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_import_loads_no_graph_library():
    # the comparison graph is tested by the stationary kernel's own
    # reachability, so importing the package leaves scipy's csgraph unloaded
    loaded = _fresh_modules("import pcmc")
    assert "pcmc.luce" in loaded
    assert "scipy.sparse.csgraph" not in loaded


def test_import_loads_no_scipy():
    # scipy's optimizer loads at the first fit, so the package and its
    # CLI need only numpy to load
    loaded = _fresh_modules("import pcmc, pcmc.cli")
    assert "pcmc.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_scoring_a_chain_model_loads_no_optimizer(tmp_path):
    # scoring, auditing and sampling a chain or an embedding model load no
    # scipy module at all: only the fitters' minimize imports scipy
    data_path, code = str(tmp_path / "d.txt"), "import pcmc.cli\n"
    for name, gen in (("chain", pcmc.PcmcModel(q=pcmc.gen_random_q(3, 0))),
                      ("embedding", data.gen_bladechest_circle(3, 0))):
        model_path = str(tmp_path / (name + ".json"))
        pcmc.save_model(gen, model_path)
        pcmc.save(pcmc.sample(gen, [(0, 1), (0, 1, 2)], 50, 0), data_path)
        code += ("assert pcmc.cli.main(['eval', '--model-file', %r, '--data', %r, '--out', %r]) == 0\n"
                 "assert pcmc.cli.main(['audit', '--model-file', %r, '--out', %r]) == 0\n"
                 % (model_path, data_path, model_path + ".eval", model_path, model_path + ".audit"))
    synth_path = str(tmp_path / "synth.txt")
    code += ("assert pcmc.cli.main(['synth', '--regime', 'bladechest', '--n', '4', "
             "'--samples', '50', '--out', %r]) == 0" % synth_path)
    loaded = _fresh_modules(code)
    for name in ("chain", "embedding"):
        for out in (".eval", ".audit"):
            assert os.path.exists(str(tmp_path / (name + ".json" + out)))
    assert os.path.exists(synth_path)
    assert "pcmc.axioms" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def _scipy_imports(node, where, found):
    """Append where, a (file, qualified enclosing name) pair, once for
    each import statement under node that names a scipy module."""
    if isinstance(node, ast.Import):
        mods = [a.name for a in node.names]
    else:
        mods = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
    if any(m.split(".")[0] == "scipy" for m in mods):
        found.append(where)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = (where[0], (where[1] + "." if where[1] else "") + node.name)
    for child in ast.iter_child_nodes(node):
        _scipy_imports(child, where, found)


def test_only_base_minimize_imports_scipy():
    # one lazy import in one helper keeps every command but a fit free of
    # scipy's import cost; a second import site would slip back in unseen
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(pcmc.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            _scipy_imports(ast.parse(fh.read()), (os.path.basename(path), ""), found)
    assert found == [("base.py", "minimize")]


def _spy(log, name, fn):
    def spy(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)
    return spy


def test_fitters_look_up_their_module_minimize(monkeypatch):
    # the benchmark's tracer times each optimizer by swapping the module
    # attributes model.minimize, luce.minimize and param.minimize, and
    # param.expit is a module attribute for the same reason: a fitter
    # that imported either inside itself would slip past the swap
    from pcmc import model, param
    calls = []
    for mod in (model, luce, param):
        monkeypatch.setattr(mod, "minimize", _spy(calls, mod.__name__, mod.minimize))
    monkeypatch.setattr(param, "expit", _spy(calls, "expit", param.expit))
    rows = [(0, (0, 1)), (1, (0, 1)), (2, (0, 1, 2)), (1, (1, 2)), (0, (0, 2))]
    ds = ChoiceDataset(n=3, observations=tuple(rows) * 4)
    cfg = model.FitConfig(max_iters=3)
    for fit, want in ((lambda: model.fit(ds, cfg), {"pcmc.model"}),
                      (lambda: luce.fit_mmnl(ds, k=2, restarts=1, max_iters=3),
                       {"pcmc.luce"}),
                      (lambda: param.fit_bladechest(ds, 1, cfg=cfg),
                       {"pcmc.param", "expit"})):
        calls.clear()
        fit()
        assert set(calls) == want


class TestMmnl:
    def test_k1_is_mnl(self):
        comp = MnlModel(gamma=np.array([0.7, 0.3]))
        mix = MmnlModel(weights=np.array([1.0]), components=(comp,))
        assert np.allclose(mix.probabilities((0, 1)).mass,
                           comp.probabilities((0, 1)).mass, atol=1e-15)

    def test_symmetric_mixture(self):
        comps = (MnlModel(gamma=np.array([0.9, 0.1])),
                 MnlModel(gamma=np.array([0.1, 0.9])))
        mix = MmnlModel(weights=np.array([0.5, 0.5]), components=comps)
        assert np.allclose(mix.probabilities((0, 1)).mass, [0.5, 0.5],
                           atol=1e-15)

    def test_weighted_average(self):
        comps = (MnlModel(gamma=np.array([0.9, 0.1])),
                 MnlModel(gamma=np.array([0.1, 0.9])))
        mix = MmnlModel(weights=np.array([0.25, 0.75]), components=comps)
        assert np.allclose(mix.probabilities((0, 1)).mass, [0.3, 0.7],
                           atol=1e-15)

    def test_weight_validation(self):
        comp = MnlModel(gamma=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MmnlModel(weights=np.array([0.4, 0.4]), components=(comp, comp))
        # NaN passed both the sign test and the sum test
        for w in ([np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(ValueError, match="finite"):
                MmnlModel(weights=np.array(w), components=(comp, comp))

    @pytest.mark.parametrize("weights, sizes, error, match", [
        ([], (), InvalidK, "at least one component"),
        ([1.0], (2, 2), ValueError, "one weight per component"),
        ([[0.5, 0.5]], (2, 2), ValueError, "one weight per component"),
        ([0.5, 0.5], (2, 3), ValueError, "disagree on universe size"),
    ])
    def test_construction_rejections(self, weights, sizes, error, match):
        comps = tuple(MnlModel(gamma=np.ones(n)) for n in sizes)
        with pytest.raises(error, match=match):
            MmnlModel(weights=np.array(weights), components=comps)

    def test_default_mixture_size(self):
        # smallest k with k*(n+1) - 1 >= n*(n-1)
        for n in range(2, 12):
            k = luce.default_mixture_size(n)
            assert k * (n + 1) - 1 >= n * (n - 1)
            assert k == 1 or (k - 1) * (n + 1) - 1 < n * (n - 1)


class TestFitMmnl:
    def test_k1_matches_mnl(self):
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1, 2), (0, 1)], count=5_000, seed=30)
        ref = luce.fit_mnl(ds)
        mix = luce.fit_mmnl(ds, k=1, seed=0)
        for s in [(0, 1, 2), (0, 1)]:
            gap = np.abs(mix.probabilities(s).mass - ref.probabilities(s).mass)
            assert gap.sum() <= 0.02

    def test_recovers_two_component_mixture(self):
        comps = (MnlModel(gamma=np.array([0.8, 0.1, 0.1])),
                 MnlModel(gamma=np.array([0.1, 0.1, 0.8])))
        gen = MmnlModel(weights=np.array([0.5, 0.5]), components=comps)
        ds = data.sample(gen, [(0, 1, 2)], count=50_000, seed=31)
        mix = luce.fit_mmnl(ds, k=2, seed=0)
        gap = np.abs(mix.probabilities((0, 1, 2)).mass
                     - gen.probabilities((0, 1, 2)).mass)
        assert gap.sum() <= 0.03

    def test_symmetric_pair(self):
        ds = ChoiceDataset(
            n=2,
            observations=tuple([(0, (0, 1))] * 500 + [(1, (0, 1))] * 500))
        mix = luce.fit_mmnl(ds, k=2, seed=0)
        assert mix.probabilities((0, 1)).prob(0) == pytest.approx(0.5, abs=0.01)

    def test_likelihood_beats_mnl_start(self):
        # the mixture is optimized from (among others) the plain MNL
        # solution copied k times, so it can never end up below it
        gen = MnlModel(gamma=np.array([0.5, 0.3, 0.2]))
        ds = data.sample(gen, [(0, 1, 2), (1, 2)], count=2_000, seed=32)
        mnl = luce.fit_mnl(ds)
        mix = luce.fit_mmnl(ds, k=2, seed=0)

        def loglik(model):
            total = 0.0
            for chosen, members in ds.observations:
                total += np.log(model.probabilities(members).prob(chosen))
            return total

        assert loglik(mix) >= loglik(mnl) - 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_fits_where_the_luce_start_does_not_exist(self, alpha):
        # alternative 3 is in no set, so the Luce fit raises NotConnected
        rows = [(0, (0, 1)), (1, (0, 1)), (1, (1, 2)), (2, (1, 2)), (0, (0, 2)),
                (0, (0, 1, 2))] * 5
        ds = ChoiceDataset(n=4, observations=rows)
        mix = luce.fit_mmnl(ds, k=2, seed=0, alpha=alpha)
        uniform = MnlModel(gamma=np.ones(4))
        assert log_likelihood(mix, ds) > log_likelihood(uniform, ds) + 1.0

    @pytest.mark.parametrize("error", [NoConvergence(1), NotConnected("cut")])
    def test_failed_luce_start_falls_back_to_zero(self, monkeypatch, error):
        starts, optimize = [], luce.minimize

        def fail(*args, **kwargs):
            raise error

        def spy(fun, x0, **kwargs):
            starts.append(x0.copy())
            return optimize(fun, x0, **kwargs)

        monkeypatch.setattr(luce, "fit_mnl", fail)
        monkeypatch.setattr(luce, "minimize", spy)
        mix = luce.fit_mmnl(pair_dataset(3, 1), k=1, seed=0, restarts=2)
        assert not starts[0].any()
        assert starts[1].any()
        assert mix.probabilities((0, 1)).prob(0) == pytest.approx(0.75, abs=0.01)

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            luce.fit_mmnl(pair_dataset(3, 1), k=1, alpha=-0.5)

    def test_no_restarts_rejected(self):
        with pytest.raises(InvalidK, match="restart count must be >= 1, got 0"):
            luce.fit_mmnl(pair_dataset(3, 1), k=1, restarts=0)

    @pytest.mark.parametrize("max_iters", [2.5, 0, -1])
    def test_iteration_cap_rejected(self, max_iters):
        # each was once handed to L-BFGS-B as it stood
        with pytest.raises(InvalidK, match="max_iters must be"):
            luce.fit_mmnl(pair_dataset(3, 1), k=2, max_iters=max_iters)

    @pytest.mark.parametrize("k", [1.9, 2.0, "2"])
    def test_size_rejected_not_truncated(self, k):
        # k=1.9 once fitted one component
        with pytest.raises(InvalidK, match="mixture size must be an integer, got %r" % (k,)):
            luce.fit_mmnl(pair_dataset(3, 1), k=k)

    def test_numpy_integer_size_accepted(self):
        mix = luce.fit_mmnl(pair_dataset(3, 1), k=np.int64(2), restarts=1, max_iters=5)
        assert mix.k == 2

    def test_every_restart_diverging_raises(self, monkeypatch):
        # swapped as the benchmark's tracer swaps it
        monkeypatch.setattr(luce, "minimize",
                            lambda fun, x0, **kwargs: types.SimpleNamespace(fun=np.inf, x=x0))
        with pytest.raises(OptimizerFailure, match="all 3 mixture fits diverged"):
            luce.fit_mmnl(pair_dataset(3, 1), k=2, restarts=3)


class TestMixtureObjective:
    """_mixture_objective against a plain per-set loop and central
    differences, on mixed set sizes 2 to 6."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 9))
        k = int(rng.integers(1, 4))
        sizes = [2, 6] + rng.integers(2, 7, size=4).tolist()
        groups = random_terms(rng, n, sizes)
        x = np.concatenate([rng.standard_normal(k * n), rng.standard_normal(k)])
        return x, k, n, groups

    @given(st.integers(0, 2 ** 31 - 1))
    def test_value_matches_per_set_loop(self, seed):
        x, k, n, groups = self._problem(seed)
        sets = [(idx[r].tolist(), w[r].tolist())
                for idx, w in groups for r in range(len(idx))]
        value = -luce._mixture_objective(x, k, n, groups)[0]
        assert value == pytest.approx(mixture_loglik(x.tolist(), k, n, sets),
                                      rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_gradient_matches_central_differences(self, seed):
        x, k, n, groups = self._problem(seed)
        grad = luce._mixture_objective(x, k, n, groups)[1]
        oracle = central_gradient(
            lambda y: luce._mixture_objective(y, k, n, groups)[0], x, 1e-5)
        assert np.abs(grad - oracle).max() \
            <= 1e-6 * max(1.0, np.abs(oracle).max())
