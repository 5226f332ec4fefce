"""Command-line interface.

Subcommands cover the whole pipeline: global Betti numbers of a complex,
per-simplex local-homology reports, stratification checks, flag-complex
construction, correlation tables, dataset generation, and the bundled
karate network. Outputs are byte-identical for identical inputs and seeds.

Each command only builds its output: stdout text and a list of
(path, text) files, where a text of None asks for the directory `path`.
`main` alone writes them, the files first and stdout last, so a command
that fails writes nothing to stdout.

Exit codes: 0 success, 1 malformed input, 2 precondition violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from . import __version__
from .analysis import is_homology_n_manifold, profile_many, profiles_to_csv
from .complexes import complex_to_json_dict, load_complex
from .errors import MalformedInputError, PreconditionError
from .graphs import _INTEGER, flag_complex, format_edge_list, parse_label, read_edge_list
from .homology import global_betti
from .stats import (
    barabasi_albert_graph,
    correlation_table,
    erdos_renyi_graph,
    karate_edge_list,
    karate_graph,
    planar_grid_graph,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2


class _Parser(argparse.ArgumentParser):
    # Usage errors are malformed input, so they exit 1 rather than
    # argparse's default 2 (reserved here for precondition violations).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"error: {message}\n")


def _integer(text: str) -> int:
    # The edge-list rule: an optional minus and ASCII digits, so "+2", "1_0" and "٣" are refused.
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


# The integer rule with an optional ASCII fraction and exponent: float() alone
# also reads "+0.5", "0_5", "nan", "inf" and "٠.٥".
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE]-?[0-9]+)?")


def _decimal(text: str) -> float:
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return float(text)


def _path(text: str) -> str:
    if text == "":
        raise argparse.ArgumentTypeError("empty path")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="localhomology",
        description="Local homology of abstract simplicial complexes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="global Betti numbers of a complex")
    p_betti.add_argument("complex", help="path to a complex JSON file")
    p_betti.set_defaults(handler=_cmd_betti)

    p_local = sub.add_parser("local", help="per-simplex local homology report")
    p_local.add_argument("complex", help="path to a complex JSON file")
    p_local.add_argument("--m", type=_count, default=0, help="largest neighborhood level")
    p_local.add_argument(
        "--simplex",
        help="restrict to one simplex, comma-separated vertex labels (default: all)",
    )
    p_local.add_argument("--csv", type=_path, help="write the CSV report to this path instead of stdout")
    p_local.set_defaults(handler=_cmd_local)

    p_strat = sub.add_parser("strat", help="homology-manifold check and ramification list")
    p_strat.add_argument("complex", help="path to a complex JSON file")
    p_strat.add_argument("--dim", type=_count, required=True, help="expected manifold dimension")
    p_strat.set_defaults(handler=_cmd_strat)

    p_flag = sub.add_parser("flag", help="flag complex of a graph, as complex JSON")
    p_flag.add_argument("edges", help="path to an edge-list file")
    p_flag.set_defaults(handler=_cmd_flag)

    p_corr = sub.add_parser("correlate", help="invariant vs local-Betti correlation table")
    p_corr.add_argument("edges", nargs="?", help="path to an edge-list file")
    p_corr.add_argument("--dataset", choices=["karate"], help="use a bundled dataset")
    p_corr.add_argument("--subject", choices=["vertex", "edge"], default="vertex")
    p_corr.add_argument("--m", default="0,1,2", help="comma list of neighborhood levels")
    p_corr.add_argument("--k", default="1,2", help="comma list of homology degrees")
    p_corr.add_argument(
        "--scatter-dir", type=_path, help="also write per-cell x,y scatter CSV files to this directory"
    )
    p_corr.set_defaults(handler=_cmd_correlate)

    p_gen = sub.add_parser("generate", help="write a seeded random graph as an edge list")
    p_gen.set_defaults(handler=lambda a: _stdout_or_file(format_edge_list(a.build(a)), a.out))
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=_integer, required=True)
    shared.add_argument("--out", type=_path, help="output path (default stdout)")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_er = gen_sub.add_parser("er", parents=[shared], help="uniform random graph with a fixed edge count")
    g_er.add_argument("--n", type=_integer, required=True)
    g_er.add_argument("--edges", type=_integer, required=True)
    g_er.set_defaults(build=lambda a: erdos_renyi_graph(a.n, a.edges, a.seed))
    g_ba = gen_sub.add_parser("ba", parents=[shared], help="preferential attachment graph")
    g_ba.add_argument("--n", type=_integer, required=True)
    g_ba.add_argument("--attach", type=_integer, required=True)
    g_ba.set_defaults(build=lambda a: barabasi_albert_graph(a.n, a.attach, a.seed))
    g_pl = gen_sub.add_parser("planar", parents=[shared], help="grid graph with random face diagonals")
    g_pl.add_argument("--width", type=_integer, required=True)
    g_pl.add_argument("--height", type=_integer, required=True)
    g_pl.add_argument("--diag-prob", type=_decimal, required=True)
    g_pl.set_defaults(build=lambda a: planar_grid_graph(a.width, a.height, a.diag_prob, a.seed))

    p_data = sub.add_parser("dataset", help="print a bundled dataset")
    p_data.add_argument("name", choices=["karate"])
    p_data.set_defaults(handler=lambda a: (karate_edge_list(), []))

    return parser


def _split_items(text: str, what: str) -> list[str]:
    items = text.split(",")
    if not all(map(str.strip, items)):
        raise MalformedInputError(f"bad {what} {text!r}")
    return items


def _parse_int_list(text: str, what: str) -> list[int]:
    tokens = _split_items(text, f"{what} list")
    if not all(map(_INTEGER.fullmatch, tokens)) or min(map(int, tokens)) < 0:
        raise MalformedInputError(f"bad {what} list {text!r}")
    return sorted({int(t) for t in tokens})


def _stdout_or_file(text: str, path):
    return (text, []) if path is None else ("", [(path, text)])


def _cmd_betti(args):
    complex = load_complex(args.complex)
    return json.dumps({"betti": list(global_betti(complex))}) + "\n", []


def _cmd_local(args):
    complex = load_complex(args.complex)
    targets = None
    if args.simplex is not None:
        labels = [parse_label(t.strip()) for t in _split_items(args.simplex, "simplex")]
        targets = [complex.simplex_with_labels(labels)]
    profiles = profile_many(complex, targets, m_max=args.m)
    return _stdout_or_file(profiles_to_csv(complex, profiles), args.csv)


def _cmd_strat(args):
    complex = load_complex(args.complex)
    manifold, offenders = is_homology_n_manifold(complex, args.dim)
    payload = {
        "dimension": args.dim,
        "homology_manifold": manifold,
        "ramification_simplices": [list(s) for s in offenders],
    }
    return json.dumps(payload, sort_keys=True) + "\n", []


def _cmd_flag(args):
    complex = flag_complex(read_edge_list(args.edges))
    return json.dumps(complex_to_json_dict(complex), sort_keys=True) + "\n", []


def _cmd_correlate(args):
    if (args.edges is None) == (args.dataset is None):
        raise MalformedInputError("give exactly one of an edge-list path or --dataset")
    graph = karate_graph() if args.dataset else read_edge_list(args.edges)
    levels = _parse_int_list(args.m, "neighborhood level")
    degrees = _parse_int_list(args.k, "homology degree")
    if degrees[0] < 1:
        raise MalformedInputError(f"bad homology degree list {args.k!r}: degrees start at 1")
    report = correlation_table(
        graph,
        subject=args.subject,
        m_max=max(levels),
        k_max=max(degrees),
    )
    report = dataclasses.replace(report, degrees=tuple(degrees), levels=tuple(levels))
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    files = []
    if args.scatter_dir is not None:
        out_dir = Path(args.scatter_dir)
        files = [(out_dir, None)] + [
            (out_dir / f"scatter_{name}_beta{k}_N{m}.csv", report.scatter_csv(name, k, m))
            for name in report.invariants
            for k in report.degrees
            for m in report.levels
        ]
    return report.to_csv(), files


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        stdout, files = args.handler(args)
        for path, text in files:
            try:  # an unwritable output path is malformed input, like an unreadable input path
                if text is None:
                    Path(path).mkdir(parents=True, exist_ok=True)
                else:
                    Path(path).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise MalformedInputError(f"cannot write {path}: {exc}") from exc
    except (MalformedInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED if isinstance(exc, MalformedInputError) else EXIT_PRECONDITION
    sys.stdout.write(stdout)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
