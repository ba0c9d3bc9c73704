"""Seeded inputs and job lists for the four workloads.

``generate`` draws every input from ``--seed`` with numpy plus spoilseg's
``synth_pilefield``, writes it with spoilseg's own writers, and writes
``manifest.json``: the jobs (CLI argument lists), the files each job writes
and the checks those files must pass.  The program under test sees only the
files.

Run as ``python3 -m perfbench.inputs`` from the checkout root, one process
per set-up, so that the benchmark's ``setup_s`` includes interpreter start
and package import and set-up memory stays out of the workload's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import env

# Input sizes.  "full" is the benchmark; "tiny" keeps the self-tests fast.
SIZES = {
    "full": {
        "n": 1000,
        "bumps": 64,
        "bump_sigma": 12.0,
        "voronoi_sigmas": [20, 10],
        "slic_k": [550, 1100],
        "ortho_noise": 7.0,
        "crop": 64,
        "crops": 2,
        "ms_min_region": 200,
        "mask_regions": 2500,
        "mask_radius": 10.0,
        "mask_min_region": 20,
    },
    "tiny": {
        "n": 160,
        "bumps": 16,
        "bump_sigma": 4.0,
        "voronoi_sigmas": [6, 3],
        "slic_k": [30, 60],
        "ortho_noise": 7.0,
        "crop": 24,
        "crops": 2,
        "ms_min_region": 40,
        "mask_regions": 64,
        "mask_radius": 10.0,
        "mask_min_region": 20,
    },
}
WORKLOADS = ("dsm-voronoi", "ortho-slic", "ortho-meanshift", "mask-ingest")
MASKS = 2  # external masks per mask-ingest set-up; jobs alternate between them
SPECKLE = 0.01  # share of mask pixels overwritten by one-pixel speckle
SPLIT = 0.1  # share of mask regions cut in two along the seed's column
BORDER_SHIFT = 1.5  # pixels of jitter moving mask cell centres off the GT

# Colour ramp of the derived ortho: low ground to pile tops.
_RAMP_LOW = (96.0, 78.0, 60.0)
_RAMP_HIGH = (200.0, 190.0, 170.0)


def _pilefield(size: dict, seed: int):
    from spoilseg import synth_pilefield

    return synth_pilefield(size["n"], size["n"], size["bumps"], size["bump_sigma"], seed)


def _derived_ortho(dsm, rng, noise: float):
    """RGB from the pile field: height colour ramp, hillshade shading, noise."""
    import numpy as np
    from spoilseg import RasterRGB, hillshade

    v = dsm.values
    height = (v - v.min()) / (v.max() - v.min())
    shade = hillshade(dsm).values
    low, high = np.array(_RAMP_LOW), np.array(_RAMP_HIGH)
    rgb = (low + (high - low) * height[..., None]) * (0.55 + 0.45 * shade[..., None])
    rgb += rng.normal(0.0, noise, size=rgb.shape)
    return RasterRGB(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))


def _dsm_voronoi(size: dict, seed: int, out: Path) -> list[dict]:
    from spoilseg import write_asc_grid, write_pgm16

    dsm, gt = _pilefield(size, seed)
    write_asc_grid(dsm, out / "tile.asc")
    write_pgm16(gt, out / "gt.pgm")
    config = {
        "algorithm": "voronoi",
        "grid": {"sigma": size["voronoi_sigmas"]},
        "inputs": {"ground_truth": str(out / "gt.pgm"), "hillshade": str(out / "shade.pgm")},
    }
    (out / "voronoi.json").write_text(json.dumps(config, indent=2) + "\n")
    shape = list(gt.labels.shape)
    rows = len(size["voronoi_sigmas"])
    return [
        {
            "name": "tile",
            "argvs": [
                ["hillshade", "--dsm", str(out / "tile.asc"), "--out", str(out / "shade.pgm")],
                ["sweep", "--config", str(out / "voronoi.json"), "--csv", str(out / "sweep.csv"),
                 "--json", str(out / "sweep.json")],
            ],
            "outputs": ["shade.pgm", "sweep.csv", "sweep.json"],
            "checks": [
                {"kind": "gray", "path": "shade.pgm", "shape": shape},
                {"kind": "sweep", "path": "sweep.json", "csv": "sweep.csv", "rows": rows, "gt": "gt.pgm"},
            ],
            "mpx": rows * gt.labels.size / 1e6,
        }
    ]


def _ortho_slic(size: dict, seed: int, out: Path) -> list[dict]:
    import numpy as np
    from spoilseg import write_pgm16, write_ppm

    dsm, gt = _pilefield(size, seed)
    write_ppm(_derived_ortho(dsm, np.random.default_rng([seed, 1]), size["ortho_noise"]), out / "ortho.ppm")
    write_pgm16(gt, out / "gt.pgm")
    config = {
        "algorithm": "slic",
        "grid": {"superpixels": size["slic_k"]},
        "inputs": {"ground_truth": str(out / "gt.pgm"), "image": str(out / "ortho.ppm")},
    }
    (out / "slic.json").write_text(json.dumps(config, indent=2) + "\n")
    rows = len(size["slic_k"])
    return [
        {
            "name": "ortho",
            "argvs": [
                ["sweep", "--config", str(out / "slic.json"), "--csv", str(out / "sweep.csv"),
                 "--json", str(out / "sweep.json")],
            ],
            "outputs": ["sweep.csv", "sweep.json"],
            "checks": [
                {"kind": "sweep", "path": "sweep.json", "csv": "sweep.csv", "rows": rows, "gt": "gt.pgm"},
            ],
            "mpx": rows * gt.labels.size / 1e6,
        }
    ]


def _ortho_meanshift(size: dict, seed: int, out: Path) -> list[dict]:
    """Crops of the same ortho as ortho-slic, each centred on a random pile."""
    import numpy as np
    from spoilseg import LabelMap, RasterRGB, write_pgm16, write_ppm

    dsm, gt = _pilefield(size, seed)
    ortho = _derived_ortho(dsm, np.random.default_rng([seed, 1]), size["ortho_noise"])
    rng = np.random.default_rng([seed, 2])
    c, n = size["crop"], size["n"]
    jobs = []
    for i, pile in enumerate(rng.choice(size["bumps"], size["crops"], replace=False) + 1):
        ys, xs = np.nonzero(gt.labels == pile)
        y0 = int(np.clip(round(ys.mean()) - c // 2, 0, n - c))
        x0 = int(np.clip(round(xs.mean()) - c // 2, 0, n - c))
        write_ppm(RasterRGB(ortho.pixels[y0 : y0 + c, x0 : x0 + c].copy()), out / f"crop{i}.ppm")
        write_pgm16(LabelMap(gt.labels[y0 : y0 + c, x0 : x0 + c].copy()), out / f"crop{i}_gt.pgm")
        jobs.append(
            {
                "name": f"crop{i}",
                "argvs": [
                    ["segment", "meanshift", "--in", str(out / f"crop{i}.ppm"), "--hs", "5", "--hr", "12",
                     "--min-region", str(size["ms_min_region"]), "--out", str(out / f"ms{i}.pgm")],
                    ["evaluate", "--gt", str(out / f"crop{i}_gt.pgm"), "--pred", str(out / f"ms{i}.pgm"),
                     "--out", str(out / f"eval{i}.json")],
                ],
                "outputs": [f"ms{i}.pgm", f"eval{i}.json"],
                "checks": [
                    {"kind": "labels", "path": f"ms{i}.pgm", "shape": [c, c]},
                    {"kind": "evaluate", "path": f"eval{i}.json", "pred": f"ms{i}.pgm", "gt": f"crop{i}_gt.pgm"},
                ],
                "mpx": c * c / 1e6,
            }
        )
    return jobs


def _mask_ingest(size: dict, seed: int, out: Path) -> list[dict]:
    """Ground truth of disk-clipped Voronoi cells, plus "external" masks of it.

    Each mask moves the cell centres (shifted borders), cuts some cells in two
    (split regions), scatters its label values over the 16-bit range and
    overwrites about 1% of pixels with one-pixel speckle below --min-region.
    """
    import numpy as np
    from scipy.spatial import cKDTree
    from spoilseg import LabelMap, write_pgm16

    n, k, radius = size["n"], size["mask_regions"], size["mask_radius"]
    rng = np.random.default_rng([seed, 3])
    centres = rng.uniform(0.0, n, size=(k, 2))
    yy, xx = np.mgrid[0:n, 0:n]
    pixels = np.column_stack([yy.ravel() + 0.5, xx.ravel() + 0.5])

    def cells(points):
        dist, idx = cKDTree(points).query(pixels, distance_upper_bound=radius)
        return np.where(np.isfinite(dist), idx + 1, 0).reshape(n, n)

    gt = LabelMap(cells(centres))
    write_pgm16(gt, out / "gt.pgm")
    n_speckle = int(SPECKLE * n * n)
    jobs = []
    for i in range(MASKS):
        moved = centres + rng.normal(0.0, BORDER_SHIFT, size=centres.shape)
        cell = cells(moved)
        split = np.zeros(k + 1, dtype=bool)
        split[1:] = rng.random(k) < SPLIT
        part = cell.copy()
        second = split[cell] & (xx + 0.5 > moved[np.maximum(cell - 1, 0), 1])
        part[second] += k  # ids k+1..2k are the second halves of split cells
        values = rng.choice(np.arange(1, 65536), size=2 * k + n_speckle, replace=False)
        mask = np.where(part > 0, values[np.maximum(part - 1, 0)], 0)
        speckle = rng.choice(n * n, size=n_speckle, replace=False)
        mask.ravel()[speckle] = values[2 * k :]
        write_pgm16(LabelMap(mask), out / f"mask{i}.pgm")
        m = size["mask_min_region"]
        jobs.append(
            {
                "name": f"mask{i}",
                "argvs": [
                    ["ingest", "--in", str(out / f"mask{i}.pgm"), "--out", str(out / f"ingested{i}.pgm"),
                     "--min-region", str(m), "--source", "synthetic", "--param", f"mask={i}",
                     "--report", str(out / f"ingest{i}.json")],
                    ["evaluate", "--gt", str(out / "gt.pgm"), "--pred", str(out / f"ingested{i}.pgm"),
                     "--out", str(out / f"eval{i}.json")],
                ],
                "outputs": [f"ingested{i}.pgm", f"ingest{i}.json", f"eval{i}.json"],
                "checks": [
                    {"kind": "labels", "path": f"ingested{i}.pgm", "shape": [n, n], "min_region": m},
                    {"kind": "ingest_report", "path": f"ingest{i}.json", "mask": f"ingested{i}.pgm", "min_region": m},
                    {"kind": "evaluate", "path": f"eval{i}.json", "pred": f"ingested{i}.pgm", "gt": "gt.pgm"},
                ],
                "mpx": n * n / 1e6,
            }
        )
    return jobs


_GENERATORS = {
    "dsm-voronoi": _dsm_voronoi,
    "ortho-slic": _ortho_slic,
    "ortho-meanshift": _ortho_meanshift,
    "mask-ingest": _mask_ingest,
}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> list[dict]:
    """Write the workload's inputs and manifest into ``out``; return its jobs."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = _GENERATORS[workload](SIZES[size], seed, out)
    (out / "manifest.json").write_text(json.dumps({"jobs": jobs}, indent=1) + "\n")
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--trace", type=Path, help="write the set-up's spans to this file")
    args = parser.parse_args(argv)
    if args.trace is None:
        generate(args.workload, args.seed, args.out, args.size)
        return 0

    import spoilseg  # noqa: F401  (the tracer wraps modules already loaded)
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer.job("setup"):
        generate(args.workload, args.seed, args.out, args.size)
    args.trace.write_text(json.dumps(tracer.span_records()) + "\n")
    return 0


if __name__ == "__main__":
    try:
        env.prepare()
    except env.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
