"""Integer outputs do not depend on which CPU kernels numpy dispatches to.

numpy picks SIMD kernels at import time from the CPU's features, so the
float64 bits of ``exp``, ``power`` and friends can differ between an
AVX-512 host and one without it.  The label maps, 8-bit images, Hoover
scores and the bytes of the sweep and ``evaluate`` reports must not.  The
test reruns a small end-to-end fixture in a child process with
``NPY_DISABLE_CPU_FEATURES`` naming every AVX-512 dispatch target this
numpy build found, which mimics an x86 host without AVX-512, and compares
the integer outputs and reports with this process's.  It skips where no
such target is found.

Run as a script, the module prints the fixture's digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from spoilseg import (
    MeanShiftParams,
    RasterRGB,
    SlicParams,
    SweepConfig,
    VoronoiParams,
    evaluate_segmentation,
    hillshade,
    mean_shift_segment,
    quantize8,
    rgb_to_lab,
    run_sweep,
    sigmoidal_stretch,
    slic,
    synth_pilefield,
    voronoi_pipeline,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg.cli import main
from spoilseg.sweep import report_csv, report_json

# Other AVX-512 names, such as AVX512F, make numpy emit an ImportWarning.
AVX512_TARGETS = [
    f
    for f in _multiarray_umath.__cpu_dispatch__
    if _multiarray_umath.__cpu_features__.get(f) and (f == "X86_V4" or f.startswith("AVX512"))
]


def fixture_digests() -> dict[str, str]:
    """sha256 of every integer output and report of a 160x160 run of each pipeline."""

    def digest(a: np.ndarray) -> str:
        return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()).hexdigest()

    def text_digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    out = {}
    dsm, gt = synth_pilefield(160, 160, 9, 5.0, 3)
    shade = quantize8(hillshade(dsm))
    img8 = quantize8(sigmoidal_stretch(dsm))
    out["hillshade8"] = digest(shade.values)
    out["stretched8"] = digest(img8.values)
    for sigma in (3.0, 6.0, 10.0):
        seg = voronoi_pipeline(img8, VoronoiParams(sigma=sigma))
        out[f"voronoi_{sigma}"] = digest(seg.labels)
        out[f"voronoi_{sigma}_scores"] = repr(evaluate_segmentation(gt, seg, 0.5))
    # an ortho of the piles: a colour ramp over the heights, shaded, with noise
    v = dsm.values
    height = ((v - v.min()) / (v.max() - v.min()))[..., None]
    rgb = (np.array([96.0, 78.0, 60.0]) + np.array([104.0, 112.0, 110.0]) * height) * (
        0.55 + 0.45 * hillshade(dsm).values[..., None]
    )
    rgb += np.random.default_rng(3).normal(0, 7, rgb.shape)
    ortho = RasterRGB(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
    out["ortho"] = digest(ortho.pixels)
    sp = slic(rgb_to_lab(ortho), SlicParams(superpixels=60))
    out["slic"] = digest(sp.labels)
    out["slic_scores"] = repr(evaluate_segmentation(gt, sp, 0.5))
    crop = RasterRGB(ortho.pixels[40:80, 40:80].copy())
    ms = mean_shift_segment(crop, MeanShiftParams(spatial_radius=4, range_radius=12, min_region_size=40))
    out["meanshift"] = digest(ms.labels)

    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("gt.pgm", "img8.pgm", "ortho.ppm", "v.pgm", "eval.json")}
        write_pgm16(gt, paths["gt.pgm"])
        write_gray_pgm16(img8, paths["img8.pgm"])
        write_ppm(ortho, paths["ortho.ppm"])
        sweeps = {
            "voronoi": SweepConfig("voronoi", {"sigma": [3.0, 6.0]}, paths["gt.pgm"], hillshade=paths["img8.pgm"]),
            "slic": SweepConfig("slic", {"superpixels": [60, 120]}, paths["gt.pgm"], image=paths["ortho.ppm"]),
        }
        for name, cfg in sweeps.items():
            report = run_sweep(cfg)
            out[f"sweep_{name}_csv"] = text_digest(report_csv(report))
            out[f"sweep_{name}_json"] = text_digest(report_json(report))
        write_pgm16(voronoi_pipeline(img8, VoronoiParams(sigma=6.0)), paths["v.pgm"])
        assert main(["evaluate", "--gt", paths["gt.pgm"], "--pred", paths["v.pgm"], "--out", paths["eval.json"]]) == 0
        out["evaluate_json"] = hashlib.sha256(Path(paths["eval.json"]).read_bytes()).hexdigest()
    return out


@pytest.mark.skipif(not AVX512_TARGETS, reason="numpy found no AVX-512 dispatch target on this CPU")
def test_integer_outputs_equal_without_avx512():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-W", "error", __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    without = json.loads(child.stdout)
    expected = fixture_digests()
    assert {k for k in expected if without[k] != expected[k]} == set()


if __name__ == "__main__":
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    assert not any(_multiarray_umath.__cpu_features__[f] for f in disabled), disabled
    print(json.dumps(fixture_digests()))
