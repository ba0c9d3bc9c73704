"""Command-line interface.

Subcommands: hillshade, segment {meanshift,slic,voronoi}, evaluate, sweep,
ingest, synth.  Any failure prints a one-line machine-readable JSON error to
stderr and exits 1; so does a sweep in which no row succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .hoover import _evaluate
from .labels import relabel_connected
from .raster_io import (
    read_asc_grid,
    read_pgm16,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
)
from .sweep import (
    ALGORITHMS,
    ingest_external_mask,
    load_sweep_config,
    report_csv,
    report_json,
    run_sweep,
)
from .synth import synth_pilefield
from .terrain import HillshadeParams, StretchParams, hillshade, quantize8, sigmoidal_stretch


def _params(cls: type, args: argparse.Namespace):
    """Params from the options stored under its field names; SUPPRESS leaves the rest to the defaults."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


def _cmd_hillshade(args: argparse.Namespace) -> int:
    out = Path(args.out)
    suffix = out.suffix.lower()
    if suffix not in (".asc", ".pgm"):
        raise ValueError(f"unsupported output extension {out.suffix!r} (use .asc or .pgm)")
    dsm = read_asc_grid(args.dsm)
    shade = hillshade(dsm, _params(HillshadeParams, args))
    stretched = sigmoidal_stretch(shade, _params(StretchParams, args))
    if suffix == ".asc":
        write_asc_grid(stretched, out)
    else:
        write_gray_pgm16(quantize8(stretched), out)
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    algo = ALGORITHMS[args.method]
    raster = algo.load(args.input)
    write_pgm16(algo.segment(raster, _params(algo.params, args)), args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gt = read_pgm16(args.gt)
    pred = read_pgm16(args.pred)
    if not args.no_relabel:
        gt = relabel_connected(gt)
        pred = relabel_connected(pred)
    classification, scores = _evaluate(gt, pred, args.threshold)
    payload = scores.to_dict()
    payload["instances"] = {
        "correct_pairs": [list(p) for p in classification.correct_pairs],
        "over": [{"gt": g, "ms": list(ms)} for g, ms in classification.over_instances],
        "under": [{"ms": m, "gt": list(gs)} for m, gs in classification.under_instances],
        "missed_gt": classification.missed_gt,
        "noise_ms": classification.noise_ms,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sweep_config(args.config)
    report = run_sweep(cfg)
    if args.csv:
        Path(args.csv).write_text(report_csv(report), encoding="utf-8")
    if args.json:
        Path(args.json).write_text(report_json(report), encoding="utf-8")
    if not args.csv and not args.json:
        sys.stdout.write(report_json(report))
    if report.optimum is None:
        raise ValueError("no sweep row succeeded")
    return 0


def _text(arg: str) -> str:
    """A command-line argument as UTF-8 text, whichever locale decoded ``sys.argv``;
    text the locale cannot encode came from a caller of :func:`main` and is kept."""
    try:
        return os.fsencode(arg).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return arg


def _cmd_ingest(args: argparse.Namespace) -> int:
    params = {}
    for item in map(_text, args.param or []):
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        if key in params:
            raise ValueError(f"duplicate --param key {key!r}")
        params[key] = value
    mask, counts = ingest_external_mask(args.input, args.min_region)
    write_pgm16(mask, args.out)
    if args.report:
        info = {"source": _text(args.source or ""), "parameters": params, **counts}
        Path(args.report).write_text(json.dumps(info, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dsm, gt = synth_pilefield(args.rows, args.cols, args.bumps, args.bump_sigma, args.seed)
    write_asc_grid(dsm, args.dsm)
    write_pgm16(gt, args.gt)
    if args.out_stretched:
        stretched = sigmoidal_stretch(dsm, _params(StretchParams, args))
        write_gray_pgm16(quantize8(stretched), args.out_stretched)
    return 0


class UsageError(ValueError):
    """A command line argparse rejected: unknown command, missing or malformed option."""


class _Parser(argparse.ArgumentParser):
    # raise instead of printing usage and exiting 2, so main reports usage
    # errors like every other failure; subparsers inherit this class
    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoilseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "hillshade", help="stretched hillshade from an ASCII-grid DSM", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--dsm", required=True)
    p.add_argument("--azimuth", type=float)
    p.add_argument("--altitude", type=float)
    p.add_argument("--z-factor", dest="z_factor", type=float)
    p.add_argument("--strength", type=float)
    p.add_argument("--scale", type=float)
    p.add_argument("--out", required=True, help="output path (.asc or .pgm)")
    p.set_defaults(func=_cmd_hillshade)

    p = sub.add_parser("segment", help="run one segmentation algorithm")
    seg_sub = p.add_subparsers(dest="method", required=True)

    ms = seg_sub.add_parser("meanshift", argument_default=argparse.SUPPRESS)
    ms.add_argument("--in", dest="input", required=True)
    ms.add_argument("--hs", dest="spatial_radius", type=float, help="spatial radius in pixels")
    ms.add_argument("--hr", dest="range_radius", type=float, help="range radius in digital numbers")
    ms.add_argument("--min-region", dest="min_region_size", type=int)
    ms.add_argument("--out", required=True)
    ms.set_defaults(func=_cmd_segment)

    sl = seg_sub.add_parser("slic", argument_default=argparse.SUPPRESS)
    sl.add_argument("--in", dest="input", required=True)
    sl.add_argument("--k", dest="superpixels", type=int, help="superpixel count")
    sl.add_argument("--m", dest="compactness", type=float, help="compactness weight")
    sl.add_argument("--iterations", type=int)
    sl.add_argument("--out", required=True)
    sl.set_defaults(func=_cmd_segment)

    vo = seg_sub.add_parser("voronoi", argument_default=argparse.SUPPRESS)
    vo.add_argument("--in", dest="input", required=True, help="8-bit gray PGM16")
    vo.add_argument("--sigma", type=float)
    vo.add_argument("--peak-radius", dest="peak_radius", type=int)
    vo.add_argument(
        "--no-restrict", dest="restrict_to_foreground", action="store_false", help="tessellate the full frame"
    )
    vo.add_argument("--invert", dest="invert_foreground", action="store_true", help="foreground below the threshold")
    vo.add_argument("--out", required=True)
    vo.set_defaults(func=_cmd_segment)

    p = sub.add_parser("evaluate", help="Hoover scores of a prediction against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-relabel", action="store_true", help="skip connected-component normalisation")
    p.add_argument("--out", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="CSV report path")
    p.add_argument("--json", help="JSON report path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ingest", help="normalise an externally produced mask")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-region", dest="min_region", type=int, default=0)
    p.add_argument("--source", help="producer name recorded in the report")
    p.add_argument("--param", action="append", help="key=value metadata, repeatable")
    p.add_argument("--report", help="JSON metadata report path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic pile field")
    p.add_argument("--rows", type=int, default=300)
    p.add_argument("--cols", type=int, default=300)
    p.add_argument("--bumps", type=int, default=9)
    p.add_argument("--bump-sigma", dest="bump_sigma", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dsm", required=True, help="output DSM path (.asc)")
    p.add_argument("--gt", required=True, help="output ground-truth path (.pgm)")
    p.add_argument("--out-stretched", dest="out_stretched", help="optional stretched 8-bit PGM")
    p.add_argument("--strength", type=float, default=argparse.SUPPRESS)
    p.add_argument("--scale", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # the documented contract: one JSON line, never a traceback
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
