"""The benchmark's tracer (benchmarks/tracer.py) wraps library functions
by module attribute. Installing it here keeps every name it wraps in the
package, so a change that drops one fails this suite, not only a
benchmark worker."""

import importlib.util
import os

import pcmc
from pcmc import data, luce

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_uninstall_restores_it():
    module = _tracer_module()
    tracer = module.Tracer(pcmc)
    try:
        tracer.install()
        swapped = list(tracer._saved)
        assert len(swapped) == len(module._FUNCTIONS) + len(module._OPTIMIZERS) + 1
        for owner, attr, original in swapped:
            assert getattr(owner, attr).__wrapped__ is original
        ds = data.ChoiceDataset(n=2, observations=((0, (0, 1)), (1, (0, 1))))
        luce.fit_mnl(ds)
        assert "luce.fit_mnl" in {s[2] for s in tracer.take_spans()}
    finally:
        tracer.uninstall()
    for owner, attr, original in swapped:
        assert getattr(owner, attr) is original
