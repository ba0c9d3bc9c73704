#!/usr/bin/env python3
"""Score an externally produced label mask against a ground-truth map.

Typical use: masks exported from deep-learning segmenters (16-bit PGM label
maps) are normalised to connected components, optionally filtered by minimum
region area, and evaluated with the Hoover metrics under the same protocol as
the traditional segmenters.

Usage:
    python3 scripts/score_external_mask.py --mask sam.pgm --gt gt.pgm \\
        --source sam --param points_per_side=200 --param iou_threshold=0.9 \\
        --min-region 100 --out report.json
"""

import argparse
import json
from pathlib import Path

from spoilseg import (
    ExternalMaskMetadata,
    evaluate_segmentation,
    ingest_external_mask,
    read_pgm16,
    relabel_connected,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mask", required=True, help="16-bit PGM label mask to score")
    parser.add_argument("--gt", required=True, help="16-bit PGM ground truth")
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--min-region", type=int, default=0)
    parser.add_argument("--source", default="", help="producer name for the report")
    parser.add_argument("--param", action="append", default=[], help="key=value metadata")
    parser.add_argument("--out", type=Path, help="JSON report path (stdout when omitted)")
    args = parser.parse_args()

    for item in args.param:
        if "=" not in item:
            parser.error(f"--param expects key=value, got {item!r}")
    params = dict(item.split("=", 1) for item in args.param)
    meta = ExternalMaskMetadata(source=args.source, parameters=params)
    mask, info = ingest_external_mask(args.mask, meta, args.min_region)
    gt = relabel_connected(read_pgm16(args.gt))
    scores = evaluate_segmentation(gt, mask, args.threshold)

    payload = scores.to_dict()
    payload["mask"] = info
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
