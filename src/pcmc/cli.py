"""Command-line interface.

Subcommands: fit (train a model and save it), eval (score a saved model
on a dataset), curve (learning curves to CSV), audit (axiom checks on a
saved model), synth (generate synthetic data from a known model).

Exit codes: 0 success, 1 usage error, 2 data or file error,
3 numerical failure.
"""

import argparse
import math
import sys

import numpy as np

from . import axioms, data as data_mod, evaluate, model as model_mod, param, serialize
from .errors import (
    MultipleClosedClasses,
    NoConvergence,
    NotConnected,
    OptimizerFailure,
    PcmcError,
    SingularSystem,
)

_REGIMES = ("randq", "mnl", "bladechest")

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _nonnegative_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return v


def _fraction_list(text):
    out = []
    for tok in text.split(","):
        f = float(tok)
        if not (0.0 < f <= 1.0):
            raise argparse.ArgumentTypeError("fractions must lie in (0, 1]")
        out.append(f)
    return out


def _model_list(text):
    out = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not out:
        raise argparse.ArgumentTypeError("need at least one model kind")
    for kind in out:
        if kind not in evaluate._KINDS:
            raise argparse.ArgumentTypeError("unknown model kind %r" % kind)
    if len(set(out)) < len(out):
        raise argparse.ArgumentTypeError("model kinds must not repeat")
    return out


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of pcmc and every subcommand, or, given a subcommand's
    name, of that one only: main builds just the options it will read."""
    parser = _Parser(prog="pcmc", description=__doc__.splitlines()[0])
    formats = dict(default="chosen-set-v1", choices=tuple(data_mod._FORMATS))
    sub = parser.add_subparsers(dest="command", required=True)
    if command in (None, "fit", "curve"):  # the fit options they share
        fitting = _Parser(add_help=False)
        defaults = model_mod.FitConfig
        fitting.add_argument("--alpha", type=float, default=defaults.smoothing_alpha,
                             help="smoothing pseudocount (default %(default)s)")
        fitting.add_argument("--seed", type=_nonnegative_int, default=0)
        fitting.add_argument("--k", type=_positive_int, default=None,
                             help="mixture size for mmnl")
        fitting.add_argument("--d", type=_positive_int, default=2,
                             help="embedding dimension for bladechest")
        fitting.add_argument("--max-iters", type=_positive_int, default=defaults.max_iters,
                             help="L-BFGS-B iteration cap of the pcmc and bladechest "
                                  "fits (default %(default)s); mnl keeps its cap of 10,000 "
                                  "fixed-point iterations, mmnl 500 per restart")
        fitting.add_argument("--format", **formats)

    if command in (None, "fit"):
        p_fit = sub.add_parser("fit", parents=[fitting], help="fit a model to a dataset")
        p_fit.add_argument("--data", required=True)
        p_fit.add_argument("--model", required=True, choices=evaluate._KINDS)
        p_fit.add_argument("--out", required=True)
        p_fit.add_argument("--variant", choices=param._VARIANTS,
                           default=param.BladeChest.variant)
        p_fit.add_argument("--report", default=None,
                           help="also write a fit report JSON here")

    if command in (None, "eval"):
        p_eval = sub.add_parser("eval", help="score a saved model on a dataset")
        p_eval.add_argument("--model-file", required=True)
        p_eval.add_argument("--data", required=True)
        p_eval.add_argument("--out", required=True)
        p_eval.add_argument("--format", **formats)

    if command in (None, "curve"):
        p_curve = sub.add_parser("curve", parents=[fitting],
                                 help="learning curve over training fractions")
        p_curve.add_argument("--data", required=True)
        p_curve.add_argument("--models", required=True, type=_model_list,
                             help="comma-separated model kinds")
        p_curve.add_argument("--fractions", required=True, type=_fraction_list,
                             help="comma-separated training fractions")
        p_curve.add_argument("--permutations", required=True, type=_positive_int)
        p_curve.add_argument("--out", required=True)

    if command in (None, "audit"):
        p_audit = sub.add_parser("audit", help="axiom checks on a saved model")
        p_audit.add_argument("--model-file", required=True)
        p_audit.add_argument("--out", required=True)
        p_audit.add_argument("--expand-k", type=_positive_int, default=2)

    if command in (None, "synth"):
        p_synth = sub.add_parser("synth", help="sample synthetic data from a known model")
        p_synth.add_argument("--regime", required=True, choices=_REGIMES)
        p_synth.add_argument("--n", required=True, type=_positive_int)
        p_synth.add_argument("--samples", required=True, type=_positive_int)
        p_synth.add_argument("--seed", type=_nonnegative_int, default=0)
        p_synth.add_argument("--out", required=True)
        p_synth.add_argument("--sets", type=_positive_int, default=25,
                             help="number of distinct triple menus (default 25)")
        p_synth.add_argument("--model-out", default=None,
                             help="also save the generating model here")
    return parser


def _cmd_fit(args) -> int:
    dataset = data_mod.load(args.data, format=args.format)
    spec = evaluate.FitSpec(kind=args.model, alpha=args.alpha, k=args.k, d=args.d,
                            variant=args.variant, max_iters=args.max_iters)
    fitted, report = spec._fit(dataset, args.seed)
    # serialized before any write, so a failure leaves no partial output
    report_text = None
    if args.report:
        if report is not None:
            report_dict = serialize.fit_report_to_dict(report)
        else:
            report_dict = {
                "loglik": model_mod.log_likelihood(fitted, dataset),
                "n_observations": len(dataset),
            }
        report_text = serialize.dumps(report_dict)
    serialize.save_model(fitted, args.out)
    if report_text is not None:
        serialize.write_text(args.report, report_text)
    return 0


def _cmd_eval(args) -> int:
    fitted = serialize.load_model(args.model_file)
    dataset = data_mod.load(args.data, format=args.format)
    report = evaluate.prediction_error(fitted, dataset)
    serialize.write_text(args.out,
                         serialize.dumps(serialize.error_report_to_dict(report)))
    return 0


def _cmd_curve(args) -> int:
    dataset = data_mod.load(args.data, format=args.format)
    specs = [
        evaluate.FitSpec(kind=kind, alpha=args.alpha, k=args.k, d=args.d,
                         max_iters=args.max_iters)
        for kind in args.models
    ]
    curve = evaluate.learning_curve(
        dataset, specs, args.fractions, args.permutations, seed=args.seed,
    )
    serialize.write_text(args.out, serialize.curve_to_csv(curve))
    return 0


def _cmd_audit(args) -> int:
    fitted = serialize.load_model(args.model_file)
    report = axioms.run_audit(fitted, expand_k=args.expand_k)
    serialize.write_text(args.out, serialize.dumps(report))
    return 0


def _triple(n: int, rank: int) -> tuple:
    """The rank-th 3-subset of range(n) in itertools.combinations order."""
    out, first = [], 0
    for left in (2, 1, 0):
        while rank >= math.comb(n - first - 1, left):  # the ranks of sets led by first
            rank -= math.comb(n - first - 1, left)
            first += 1
        out.append(first)
        first += 1
    return tuple(out)


def _cmd_synth(args) -> int:
    if args.n < 3:
        raise _UsageError("synth needs --n of at least 3")
    rngs = np.random.default_rng(args.seed).spawn(3)
    if args.regime == "randq":
        generator = model_mod.PcmcModel(q=data_mod.gen_random_q(args.n, rngs[0]))
    elif args.regime == "mnl":
        generator = data_mod.gen_mnl_simplex(args.n, rngs[0])
    else:
        generator = data_mod.gen_bladechest_circle(args.n, rngs[0])

    total = math.comb(args.n, 3)
    picked = rngs[1].choice(total, size=min(args.sets, total), replace=False)
    menus = [_triple(args.n, int(k)) for k in sorted(picked)]

    dataset = data_mod.sample(generator, menus, args.samples, rngs[2])
    data_mod.save(dataset, args.out)
    if args.model_out:
        serialize.save_model(generator, args.model_out)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
    "audit": _cmd_audit,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OptimizerFailure, NoConvergence, NotConnected, SingularSystem,
            MultipleClosedClasses) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, PcmcError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
