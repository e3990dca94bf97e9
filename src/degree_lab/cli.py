"""Command line front end.

    degree-lab <subcommand> [flags]

Subcommands and their required flags, one per experiment kind in
experiments.KIND_SPECS plus decompose:

    nu         --n
    bins       --n --k
    forest     --n --t
    gnm        --n --m
    cs         --n --m
    complex    --core FILE --q
    pipeline   --core FILE --l --r --n --m
    census     --n --m
    decompose  FILE

Every subcommand accepts --format json|csv, --out PATH and
--threshold F; reports go to stdout unless --out is given.  Exit code
0 means the verdict was "pass" (or the subcommand has no verdict),
1 means "fail", 2 means a usage or runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .edgelist import _read_simple_graph
from .experiments import (KIND_SPECS, ExperimentConfig, _json_bytes,
                          emit_report, run_experiment)
from .graphs import GraphError, split
from .samplers import SamplingCapExceeded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degree-lab",
        description="Concentration experiments for maximum loads and degrees.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--threshold", type=float, default=None,
                        help="pass threshold (hit fraction, or max TV "
                             "distance for census)")

    for kind, spec in KIND_SPECS.items():
        p = sub.add_parser(kind, parents=[common], help=spec.help)
        for flag in spec.flags:
            # an absent flag leaves the ExperimentConfig default in place
            kwargs = ({"action": "store_true"} if flag.type is bool else
                      {"type": flag.type,
                       "metavar": flag.metavar or flag.name[2:].upper()})
            p.add_argument(flag.name, dest=flag.field, required=flag.required,
                           default=argparse.SUPPRESS, help=flag.help,
                           **kwargs)

    p = sub.add_parser("decompose", parents=[common],
                       help="three-way decomposition of an edge-list file")
    p.add_argument("file", help="edge-list file (simple graph header)")

    return parser


def _decompose_payload(path: str) -> bytes:
    g = _read_simple_graph(path)
    parts = split(g)

    def part_doc(s):
        return {"order": s.order, "size": s.size, "maxDegree": s.max_degree()}

    doc = {
        "kind": "decompose",
        "params": {"file": str(path), "n": g.n, "m": g.num_edges},
        "parts": {
            "largeComplex": part_doc(parts.large_complex),
            "smallComplex": part_doc(parts.small_complex),
            "nonComplex": part_doc(parts.non_complex),
            "core": part_doc(parts.core),
        },
        "coreLargestComponent": [int(v) for v in parts.core_largest_component],
    }
    return _json_bytes(doc)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(kind=args.command, threshold=args.threshold)
    for flag in KIND_SPECS[args.command].flags:
        if hasattr(args, flag.field):
            value = getattr(args, flag.field)
            setattr(cfg, flag.field,
                    value if flag.load is None else flag.load(value))
    return cfg


def _write(payload: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "decompose":
            if args.format != "json":
                raise ValueError("decompose reports are json only")
            _write(_decompose_payload(args.file), args.out)
            return 0
        cfg = _config_from_args(args)
        report = run_experiment(cfg)
        _write(emit_report(report, args.format), args.out)
        return 0 if report.passed else 1
    except (ValueError, GraphError, SamplingCapExceeded, OSError,
            MemoryError) as exc:
        print(f"degree-lab: error: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
