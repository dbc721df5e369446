"""Command-line surface: reproducible builds, scans, and isospectrality checks.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 numerical
non-convergence, 4 verification failure.  Identical invocations produce
byte-identical outputs; every randomized subcommand requires --seed and
records it in its output.

The floating-point subcommands (spectrum, compare, markov, conjugate)
import ``spectral`` and ``markov``, and so numpy, inside their handlers:
build, zeta, zeta-conjugator and isomorphic start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import io as gio
from .graphs import (GearSpec, GearlabError, GraphError, build_fig3_pair, build_gear,
                     fig2_control_pair, fig6_digraph_pair, gear_to_digraph,
                     subdivide, validate_graph)
from .zeta import ZetaError, digraph_isomorphic, verify_intertwiner, zeta_equivalent

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFICATION = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_lengths(text):
    try:
        vals = tuple(float(Fraction(part)) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad lengths '{text}'") from exc
    return vals


def _weight(args):
    """--w as a Fraction, or its float in float mode; positive and finite as a float."""
    try:
        w = Fraction(args.w)
        if 0 < float(w) < math.inf:
            return w if args.mode == "rational" else float(w)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise CliError(EXIT_VALIDATION, f"bad weight '{args.w}': w must be positive and finite")


def _scan_params(args):
    from .spectral import ScanParams, SpectralError
    step = {} if args.grid_step is None else {"grid_step": args.grid_step}
    try:
        return ScanParams(args.k_max, **step)
    except SpectralError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc


def _gear_spec(args) -> GearSpec:
    lengths = _parse_lengths(args.lengths)
    attachments = None
    if getattr(args, "attach", None):
        attachments = tuple({"t": "tail", "h": "head"}.get(ch, ch) for ch in args.attach)
    try:
        return GearSpec(len(lengths), lengths, "dual" if args.dual else "primal", attachments)
    except GraphError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc


def _read_graph(path):
    try:
        g = gio.read_graph(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except GraphError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    problems = validate_graph(g)
    if problems:
        raise CliError(EXIT_VALIDATION, "; ".join(problems))
    return g


def _read_digraph(path):
    try:
        return gio.read_digraph(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except GraphError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _emit_json(report, path):
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args):
    if args.fig3:
        lengths = _parse_lengths(args.lengths)
        try:
            left, right = build_fig3_pair(args.fig3, lengths)
        except GraphError as exc:
            raise CliError(EXIT_VALIDATION, str(exc)) from exc
        base = args.output or f"fig3{args.fig3}"
        _emit(gio.graph_to_text(left), f"{base}_left.graph")
        _emit(gio.graph_to_text(right), f"{base}_right.graph")
        return EXIT_OK
    spec = _gear_spec(args)
    g = build_gear(spec)
    problems = validate_graph(g)
    if problems:
        raise CliError(EXIT_VALIDATION, "; ".join(problems))
    if args.digraph:
        _emit(gio.digraph_to_text(gear_to_digraph(spec)), args.output)
    else:
        _emit(gio.graph_to_text(g), args.output)
    return EXIT_OK


def cmd_spectrum(args):
    from .spectral import SpectralError, VertexConditions, scan_spectrum
    g = _read_graph(args.graph)
    params = _scan_params(args)
    cond = VertexConditions(args.w)
    try:
        spectrum = scan_spectrum(g, cond, params)
    except SpectralError as exc:
        raise CliError(EXIT_NONCONVERGENCE, str(exc)) from exc
    _emit(gio.spectrum_to_csv(spectrum), args.output)
    return EXIT_OK


def cmd_compare(args):
    from .spectral import SpectralError, VertexConditions, compare_spectra, scan_spectrum
    g1 = _read_graph(args.graph1)
    g2 = _read_graph(args.graph2)
    params = _scan_params(args)
    cond = VertexConditions(args.w)
    try:
        s1 = scan_spectrum(g1, cond, params)
        s2 = scan_spectrum(g2, cond, params)
    except SpectralError as exc:
        raise CliError(EXIT_NONCONVERGENCE, str(exc)) from exc
    report = compare_spectra(s1, s2)
    report["pairs"] = [list(p) for p in report["pairs"]]
    _emit_json(report, args.output)
    return EXIT_OK if report["match"] else EXIT_VERIFICATION


def cmd_markov(args):
    from .markov import (MarkovError, characteristic_polynomial_exact, markov_eigenvalues,
                         markov_matrix)
    spec = _gear_spec(args)
    if not spec.is_integral():
        raise CliError(EXIT_VALIDATION, "markov subcommand needs integer lengths")
    try:
        ms = markov_matrix(subdivide(build_gear(spec)), _weight(args), args.mode)
    except (GraphError, MarkovError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    vals = markov_eigenvalues(ms)
    report = {
        "n": spec.n,
        "lengths": [float(l) for l in spec.lengths],
        "variant": spec.variant,
        "w": str(args.w),
        "mode": args.mode,
        "size": ms.size,
        "eigenvalues": [float(v) for v in vals],
    }
    if args.mode == "rational":
        coeffs = characteristic_polynomial_exact(ms)
        report["charpoly_num"] = [c.numerator for c in coeffs]
        report["charpoly_den"] = [c.denominator for c in coeffs]
    _emit_json(report, args.output)
    return EXIT_OK


def cmd_conjugate(args):
    from .markov import MarkovError, conjugator_report
    spec = _gear_spec(args)
    if not spec.is_integral():
        raise CliError(EXIT_VALIDATION, "conjugate subcommand needs integer lengths")
    try:
        report = conjugator_report(spec, _weight(args), args.mode)
    except (GraphError, MarkovError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    _emit_json(report, args.output)
    ok = report["sigma_min_C"] > 1e-8 and report["conj_residual"] <= 1e-10
    if report["charpoly_equal"] is not None:
        ok = ok and report["charpoly_equal"]
    return EXIT_OK if ok else EXIT_VERIFICATION


def _digraph_pair(args):
    if (args.fig6 or args.fig2) and (args.g1 or args.g2):
        raise CliError(EXIT_VALIDATION, "give either --g1/--g2 or a fixture flag, not both")
    if args.fig6:
        return fig6_digraph_pair()
    if args.fig2:
        return fig2_control_pair()
    if not (args.g1 and args.g2):
        raise CliError(EXIT_VALIDATION, "need --g1/--g2 or a fixture flag")
    return _read_digraph(args.g1), _read_digraph(args.g2)


def cmd_zeta(args):
    g1, g2 = _digraph_pair(args)
    try:
        verdict = zeta_equivalent(g1, g2, trials=args.trials, seed=args.seed)
    except ZetaError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    _emit_json(verdict, args.output)
    return EXIT_OK


def cmd_zeta_conjugator(args):
    report = verify_intertwiner()
    etas = report.pop("etas")
    if args.dump_eta:
        for eta, tag in zip(etas, ("g", "gt")):
            _emit("\n".join(eta.dump_lines()) + "\n", f"{args.dump_eta}_{tag}.poly")
    _emit_json(report, args.output)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_isomorphic(args):
    g1, g2 = _digraph_pair(args)
    try:
        witness = digraph_isomorphic(g1, g2)
    except ZetaError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    _emit_json({"isomorphic": witness is not None, "witness": witness}, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_gear_args(p):
    p.add_argument("--lengths", required=True, help="comma-separated side/tooth lengths")
    p.add_argument("--dual", action="store_true", help="build the dual variant")
    p.add_argument("--attach", default=None,
                   help="per-tooth attachment pattern, e.g. 'tht' (t=tail, h=head)")


def _add_fixture_args(p):
    fixture = p.add_mutually_exclusive_group()
    fixture.add_argument("--fig6", action="store_true", help="use the reference pair")
    fixture.add_argument("--fig2", action="store_true", help="use the negative-control pair")


def build_parser():
    parser = argparse.ArgumentParser(prog="gearlab",
                                     description="gear graphs and their spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a gear/fixture graph file")
    _add_gear_args(p)
    p.add_argument("--fig3", choices=("a", "b"), default=None,
                   help="emit a fixture pair instead of a gear")
    p.add_argument("--digraph", action="store_true", help="emit the digraph export")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("spectrum", help="scan the spectrum of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="compare the spectra of two graph files")
    p.add_argument("--graph1", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("markov", help="walk matrix spectrum and exact char poly")
    _add_gear_args(p)
    p.add_argument("--w", default="1")
    p.add_argument("--mode", choices=("rational", "float"), default="rational")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("conjugate", help="build and verify the walk conjugator")
    _add_gear_args(p)
    p.add_argument("--w", default="1")
    p.add_argument("--mode", choices=("rational", "float"), default="rational")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("zeta", help="polynomial identity test of two digraphs")
    p.add_argument("--g1")
    p.add_argument("--g2")
    _add_fixture_args(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("zeta-conjugator", help="exact checks of the 12x12 intertwiner")
    p.add_argument("--dump-eta", default=None, metavar="BASE",
                   help="also write the exact y=0 determinants as BASE_g.poly / BASE_gt.poly")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_zeta_conjugator)

    p = sub.add_parser("isomorphic", help="digraph isomorphism with witness")
    p.add_argument("--g1")
    p.add_argument("--g2")
    _add_fixture_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_isomorphic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"gearlab: {exc}", file=sys.stderr)
        return exc.code
    except GearlabError as exc:
        print(f"gearlab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
