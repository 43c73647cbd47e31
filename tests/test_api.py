"""The public surface, checked against a committed pin.

surface() records what a caller can name: pcmc.__all__, the fields of
each public dataclass with their defaults, the parameters of each other
public function or class, the exceptions in pcmc.errors with their
bases, and the option strings of each `pcmc` subcommand. api_surface.json
holds the pinned copy. A change that means to add, rename or remove any
of these regenerates the pin with

    PYTHONPATH=src python3 tests/test_api.py

and names every moved entry in CHANGES.md.
"""

import argparse
import ast
import dataclasses
import glob
import inspect
import json
import os

import pcmc
from pcmc import cli, errors

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "api_surface.json")


def _field(f):
    if f.default is not dataclasses.MISSING:
        return "%s=%r" % (f.name, f.default)
    if f.default_factory is not dataclasses.MISSING:
        return "%s=<factory>" % f.name
    return f.name


def _parameters(obj):
    """Each parameter as written in a signature, without its annotation."""
    return [str(p.replace(annotation=p.empty))
            for p in inspect.signature(obj).parameters.values()]


def _options(parser):
    return [", ".join(a.option_strings or [a.dest]) for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def surface():
    names = sorted(pcmc.__all__)
    public = [(name, getattr(pcmc, name)) for name in names]
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {
        "pcmc.__all__": names,
        "fields": {name: [_field(f) for f in dataclasses.fields(obj)]
                   for name, obj in public if dataclasses.is_dataclass(obj)},
        "parameters": {name: _parameters(obj) for name, obj in public
                       if callable(obj) and not dataclasses.is_dataclass(obj)},
        "pcmc.errors": ["%s(%s)" % (name, ", ".join(b.__name__ for b in obj.__bases__))
                        for name, obj in sorted(vars(errors).items())
                        if isinstance(obj, type) and issubclass(obj, Exception)
                        and obj.__module__ == errors.__name__ and name[0] != "_"],
        "cli": {name: _options(sub) for name, sub in sorted(commands.items())},
    }


def differences(pinned, now, where=""):
    """One line per entry that the pin and the code disagree on."""
    if isinstance(pinned, dict) and isinstance(now, dict):
        out = ["only in the pin: %s%s" % (where, k) for k in pinned if k not in now]
        out += ["not in the pin: %s%s" % (where, k) for k in now if k not in pinned]
        for k in pinned:
            if k in now:
                out += differences(pinned[k], now[k], "%s%s: " % (where, k))
        return out
    out = ["only in the pin: %s%s" % (where, v) for v in pinned if v not in now]
    out += ["not in the pin: %s%s" % (where, v) for v in now if v not in pinned]
    if not out and pinned != now:
        out.append("reordered: %s%s -> %s" % (where, pinned, now))
    return out


def write_pin(path=PIN):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(surface(), indent=1) + "\n")


def test_public_surface_matches_pin():
    with open(PIN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    problems = differences(pinned, surface())
    assert not problems, "%d differences from %s:\n%s" % (
        len(problems), os.path.basename(PIN), "\n".join(problems))


def test_every_error_is_raised():
    # an error class that no raise names is a surface entry with no reader
    raised = set()
    for path in glob.glob(os.path.join(os.path.dirname(pcmc.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                exc = node.exc if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.PcmcError)}
    assert classes - raised == {"PcmcError", "_Numbered"}


def test_differences_names_each_entry():
    pinned = {"fields": {"A": ["x", "y=1"]}, "cli": {"fit": ["--a", "--b"]}}
    now = {"fields": {"A": ["y=1", "z"], "B": []}, "cli": {"fit": ["--b", "--a"]}}
    assert differences(pinned, now) == [
        "not in the pin: fields: B",
        "only in the pin: fields: A: x",
        "not in the pin: fields: A: z",
        "reordered: cli: fit: ['--a', '--b'] -> ['--b', '--a']",
    ]


if __name__ == "__main__":
    write_pin()
    print("wrote the public surface to %s" % PIN)
