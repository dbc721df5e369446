"""Command-line surface: reproducible builds, scans, and isospectrality checks.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 numerical
non-convergence, 4 verification failure.  Identical invocations produce
byte-identical outputs; every randomized subcommand requires --seed and
records it in its output.

Each handler imports what only it uses.  The floating-point subcommands
(spectrum, compare, markov, conjugate) import ``spectral`` and ``markov``,
and so numpy; build, zeta, zeta-conjugator and isomorphic start without
numpy, and only zeta, zeta-conjugator and isomorphic load ``zeta``.  The
digraph commands never load ``fractions``, which reads --lengths and --w.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import io as gio
from .graphs import (GearSpec, GearlabError, GraphError, build_fig3_pair, build_gear,
                     dual_gear, fig2_control_pair, fig6_digraph_pair, gear_to_digraph,
                     subdivide, tooth_weight, validate_metric)

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
    from fractions import Fraction
    try:
        return tuple(float(Fraction(part)) for part in text.split(","))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad lengths '{text}'") from exc


def _gear_spec(args) -> GearSpec:
    lengths = _parse_lengths(args.lengths)
    attachments = None
    if args.attach:
        attachments = tuple({"t": "tail", "h": "head"}.get(ch, ch) for ch in args.attach)
    spec = GearSpec(len(lengths), lengths, "primal", attachments)
    return dual_gear(spec) if args.dual else spec


def _read(read, path):
    """``read(path)``; a file that cannot be read exits 1, and one whose
    records do not make a graph exits 2 with its path in the message."""
    try:
        return read(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except GraphError as exc:
        raise CliError(EXIT_VALIDATION, f"{path}: {exc}") from exc


def _scan(args, *paths):
    """The scanned spectra of the graph files ``paths`` under the scan
    options of ``args``; every file is read and checked, its path leading
    any problem, before the first scan, and a scan that fails exits 3."""
    from .spectral import ScanParams, SpectralError, VertexConditions, scan_spectrum
    graphs = []
    for path in paths:
        g = _read(gio.read_graph, path)
        problems = validate_metric(g)
        if problems:
            raise CliError(EXIT_VALIDATION, f"{path}: " + "; ".join(problems))
        graphs.append(g)
    step = {} if args.grid_step is None else {"grid_step": args.grid_step}
    params = ScanParams(args.k_max, **step)
    cond = VertexConditions(float(tooth_weight(args.w)))
    try:
        return [scan_spectrum(g, cond, params) for g in graphs]
    except SpectralError as exc:
        raise CliError(EXIT_NONCONVERGENCE, str(exc)) from exc


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
        if args.dual or args.attach or args.digraph:
            raise CliError(EXIT_VALIDATION,
                           "--fig3 builds a fixed pair: drop --dual, --attach and --digraph")
        left, right = build_fig3_pair(args.fig3, _parse_lengths(args.lengths))
        base = args.output or f"fig3{args.fig3}"
        _emit(gio.graph_to_text(left), f"{base}_left.graph")
        _emit(gio.graph_to_text(right), f"{base}_right.graph")
        return EXIT_OK
    spec = _gear_spec(args)
    if args.digraph:
        _emit(gio.digraph_to_text(gear_to_digraph(spec)), args.output)
    else:
        _emit(gio.graph_to_text(build_gear(spec)), args.output)
    return EXIT_OK


def cmd_spectrum(args):
    spectrum, = _scan(args, args.graph)
    _emit(gio.spectrum_to_csv(spectrum), args.output)
    return EXIT_OK


def cmd_compare(args):
    from .spectral import compare_spectra
    report = compare_spectra(*_scan(args, args.graph1, args.graph2))
    _emit_json(report, args.output)
    return EXIT_OK if report["match"] else EXIT_VERIFICATION


def cmd_markov(args):
    from .markov import characteristic_polynomial_exact, markov_eigenvalues, markov_matrix
    spec = _gear_spec(args)
    ms = markov_matrix(subdivide(build_gear(spec)), tooth_weight(args.w))
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
    from .markov import conjugator_report
    spec = _gear_spec(args)
    try:
        report = conjugator_report(spec, tooth_weight(args.w))
    except OverflowError as exc:          # C's entries near 1e308
        raise CliError(EXIT_NONCONVERGENCE, "conjugator entries overflow a float") from exc
    _emit_json(report, args.output)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def _digraph_pair(args):
    if (args.fig6 or args.fig2) and (args.g1 or args.g2):
        raise CliError(EXIT_VALIDATION, "give either --g1/--g2 or a fixture flag, not both")
    if args.fig6:
        return fig6_digraph_pair()
    if args.fig2:
        return fig2_control_pair()
    if not (args.g1 and args.g2):
        raise CliError(EXIT_VALIDATION, "need --g1/--g2 or a fixture flag")
    return _read(gio.read_digraph, args.g1), _read(gio.read_digraph, args.g2)


def cmd_zeta(args):
    from .zeta import zeta_equivalent
    g1, g2 = _digraph_pair(args)
    _emit_json(zeta_equivalent(g1, g2, trials=args.trials, seed=args.seed), args.output)
    return EXIT_OK


def cmd_zeta_conjugator(args):
    from .zeta import verify_intertwiner
    report = verify_intertwiner()
    etas = report.pop("etas")
    if args.dump_eta:
        for eta, tag in zip(etas, ("g", "gt")):
            _emit("\n".join(eta.dump_lines()) + "\n", f"{args.dump_eta}_{tag}.poly")
    _emit_json(report, args.output)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_isomorphic(args):
    from .zeta import digraph_isomorphic
    g1, g2 = _digraph_pair(args)
    witness = digraph_isomorphic(g1, g2)
    _emit_json({"isomorphic": witness is not None, "witness": witness}, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _gear_options(p):
    p.add_argument("--lengths", required=True, help="comma-separated side/tooth lengths")
    p.add_argument("--dual", action="store_true", help="build the dual variant")
    p.add_argument("--attach", default=None,
                   help="per-tooth attachment pattern, e.g. 'tht' (t=tail, h=head)")


def _scan_options(p):
    p.add_argument("--w", default="1")
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=None)


def _pair_options(p):
    p.add_argument("--g1")
    p.add_argument("--g2")
    fixture = p.add_mutually_exclusive_group()
    fixture.add_argument("--fig6", action="store_true", help="use the reference pair")
    fixture.add_argument("--fig2", action="store_true", help="use the negative-control pair")


@contextmanager
def _command(sub, name, func, summary):
    """The subparser of ``name``, running ``func``; -o/--output follows the
    options added inside the ``with`` block."""
    p = sub.add_parser(name, help=summary)
    yield p
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(prog="gearlab",
                                     description="gear graphs and their spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    with _command(sub, "build", cmd_build, "write a gear/fixture graph file") as p:
        _gear_options(p)
        p.add_argument("--fig3", choices=("a", "b"), default=None,
                       help="emit a fixture pair instead of a gear")
        p.add_argument("--digraph", action="store_true", help="emit the digraph export")

    with _command(sub, "spectrum", cmd_spectrum, "scan the spectrum of a graph file") as p:
        p.add_argument("--graph", required=True)
        _scan_options(p)

    with _command(sub, "compare", cmd_compare, "compare the spectra of two graph files") as p:
        p.add_argument("--graph1", required=True)
        p.add_argument("--graph2", required=True)
        _scan_options(p)

    with _command(sub, "markov", cmd_markov, "walk matrix spectrum and exact char poly") as p:
        _gear_options(p)
        p.add_argument("--w", default="1")
        p.add_argument("--mode", choices=("rational", "float"), default="rational",
                       help="float omits the exact char poly")

    with _command(sub, "conjugate", cmd_conjugate,
                  "build and verify the walk conjugator (exit 0 iff its report's ok)") as p:
        _gear_options(p)
        p.add_argument("--w", default="1")

    with _command(sub, "zeta", cmd_zeta, "polynomial identity test of two digraphs") as p:
        _pair_options(p)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--seed", type=int, required=True)

    with _command(sub, "zeta-conjugator", cmd_zeta_conjugator,
                  "exact checks of the 12x12 intertwiner") as p:
        p.add_argument("--dump-eta", default=None, metavar="BASE",
                       help="also write the exact y=0 determinants as BASE_g.poly / BASE_gt.poly")

    with _command(sub, "isomorphic", cmd_isomorphic, "digraph isomorphism with witness") as p:
        _pair_options(p)
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
