"""Closed-loop benchmark of the spoilseg CLI, one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all        # every workload, one table

One client runs the workload's jobs back to back until ``--seconds`` have
passed: each job calls ``spoilseg.cli.main(argv)`` in this process, exactly
as the user's commands would run, and starts when the previous one returns.
Inputs are generated from ``--seed`` before timing, once per set-up process.
Every job's outputs are digested and checked; the last line of standard
output is the JSON result.  With ``--trace 1`` each job runs twice, untraced
then traced, and the result carries the per-layer metrics and the tracing
overhead instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":  # run as a script: import the package from the checkout root
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perfbench import env  # noqa: E402
from perfbench.inputs import SIZES, WORKLOADS  # noqa: E402
from perfbench.tracer import Tracer, layer_metrics, metric_units  # noqa: E402

# perfbench.checks imports numpy, so it is imported only after env.prepare()
# has capped the thread pools.

OUT = env.ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 1
SETUPS = 3  # set-up processes per run; setup_s is their median
MIN_JOBS = 2  # jobs run even when they outlast --seconds
END_TO_END = {"setup_s": "s", "mpx_per_s": "Mpx/s", "job_p50_s": "s", "peak_rss_mb": "MB"}
TRACE_SCHEMA = "perfbench-trace/1"


class WorkloadRun:
    """One workload's inputs, job loop and output checks, in a private directory."""

    def __init__(self, workload: str, seed: int, size: str = "full", trace: bool = False) -> None:
        self.workload, self.seed, self.size = workload, seed, size
        self.work = OUT / f"{workload}-{os.getpid()}"
        self.io = self.work / "io"
        self.tracer = Tracer() if trace else None
        self.setup_times: list[float] = []
        self.setup_spans: list[dict] = []
        self.setup_error: str | None = None
        self.jobs: list[dict] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.results: list[dict] = []  # one per job run: name, job id, traced, wall, mpx, error

    def setup(self, repeats: int = SETUPS) -> None:
        """Generate the inputs ``repeats`` times, each in a fresh process."""
        from perfbench.checks import digest

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        first = None
        for r in range(repeats):
            shutil.rmtree(self.io, ignore_errors=True)
            cmd = [sys.executable, "-m", "perfbench.inputs", "--workload", self.workload,
                   "--seed", str(self.seed), "--out", str(self.io), "--size", self.size]
            span_file = self.work / f"setup{r}.json"
            if self.tracer is not None:
                cmd += ["--trace", str(span_file)]
            t0 = perf_counter()
            subprocess.run(cmd, cwd=env.ROOT, check=True, timeout=170)
            self.setup_times.append(perf_counter() - t0)
            if self.tracer is not None:
                spans = json.loads(span_file.read_text())
                self.setup_spans += _renumbered(spans, len(self.setup_spans), job=f"setup{r}")
            digests = {p.name: digest(p) for p in sorted(self.io.iterdir())}
            if first is None:
                first = digests
            elif digests != first:
                self.setup_error = "set-up is not deterministic: inputs differ between set-ups"
        self.jobs = json.loads((self.io / "manifest.json").read_text())["jobs"]

    def run_job(self, job: dict, traced: bool = False) -> dict:
        """Run one job's commands and digest what it wrote."""
        from spoilseg import cli
        from perfbench.checks import digest

        def commands() -> str | None:
            for argv in job["argvs"]:
                rc = cli.main(argv)
                if rc != 0:
                    return f"`spoilseg {argv[0]}` exited {rc}"
            return None

        root = None
        job_id = f"{job['name']}#{len(self.results)}"
        t0 = perf_counter()
        try:
            if traced:
                with self.tracer.job(job_id) as root:
                    error = commands()
            else:
                error = commands()
        except (Exception, SystemExit) as exc:  # a crashing command fails its job, not the run
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0 if root is None else root["end"] - root["start"]
        if error is None:
            try:
                digests = {name: digest(self.io / name) for name in job["outputs"]}
            except OSError as exc:
                error = f"missing output: {exc}"
            else:
                expected = self.first_digests.setdefault(job["name"], digests)
                if digests != expected:
                    changed = sorted(n for n in digests if digests[n] != expected.get(n))
                    error = f"outputs differ from the job's first run: {', '.join(changed)}"
        result = {"name": job["name"], "job": job_id, "traced": traced, "wall": wall, "mpx": job["mpx"], "error": error}
        self.results.append(result)
        if error is not None:
            print(f"perfbench: job {job['name']} failed: {error}", file=sys.stderr)
        return result

    def loop(self, seconds: float) -> None:
        """Closed loop with one client; traced runs pair each job untraced/traced.

        A job starts only if, at the mean pace so far, it ends within
        ``seconds``, so a run's length does not depend on how far the last
        job overshoots.
        """
        start, i = perf_counter(), 0
        while True:
            job = self.jobs[i % len(self.jobs)]
            self.run_job(job)
            if self.tracer is not None:
                self.run_job(job, traced=True)
            i += 1
            elapsed = perf_counter() - start
            if len(self.results) >= MIN_JOBS and elapsed * (i + 1) / i > seconds:
                break

    def check(self, reference: dict | None) -> None:
        """Check each job's final outputs; a failure fails every run of that job.

        Run after the loop, so the checks' memory stays out of peak RSS.
        Repetitions reproduced the first run's digests, so the files on disk
        stand for every run of the job.
        """
        from perfbench.checks import CheckFailed, check_outputs

        for job in self.jobs:
            digests = self.first_digests.get(job["name"])
            if digests is None:
                continue
            error = None
            try:
                check_outputs(job["checks"], self.io)
            except CheckFailed as exc:
                error = str(exc)
            if reference is not None and reference.get(job["name"]) != digests:
                error = "outputs differ from the reference digests of the default seed"
            if error is not None:
                print(f"perfbench: job {job['name']} failed its output check: {error}", file=sys.stderr)
                for r in self.results:
                    if r["name"] == job["name"] and r["error"] is None:
                        r["error"] = error

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- results -----------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        timed = [r for r in self.results if not r["traced"]]
        return {
            "setup_s": statistics.median(self.setup_times),
            "mpx_per_s": sum(r["mpx"] for r in timed if r["error"] is None) / sum(r["wall"] for r in timed),
            "job_p50_s": statistics.median(r["wall"] for r in timed),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        untraced = [r["wall"] for r in self.results if not r["traced"]]
        traced = [r["wall"] for r in self.results if r["traced"]]
        out = layer_metrics(self.setup_spans, len(self.setup_times), self.tracer.span_records(), len(traced))
        out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        out["trace.jobs"] = len(traced)
        return out

    def trace_payload(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "workload": self.workload,
            "seed": self.seed,
            "env": env.record(),
            "spans": self.setup_spans + _renumbered(self.tracer.span_records(), len(self.setup_spans)),
        }


def _renumbered(spans: list[dict], base: int, job: str | None = None) -> list[dict]:
    """Shift span ids (and parent links) by ``base``; optionally set the job id."""
    out = []
    for s in spans:
        parent = None if s["parent"] is None else s["parent"] + base
        out.append({**s, "id": s["id"] + base, "parent": parent, "job": job or s["job"]})
    return out


def layer_units() -> dict[str, str]:
    return {**metric_units(), "trace.overhead_s": "s", "trace.jobs": "count"}


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    """Reference digests apply to the default seed at full size only."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads(REFERENCE.read_text())["digests"].get(workload, {})


def record_reference(workload: str, digests: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"seed": DEFAULT_SEED, "digests": {}}
    data["digests"][workload] = digests
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_workload(args: argparse.Namespace) -> dict:
    run = WorkloadRun(args.workload, args.seed, args.size, trace=bool(args.trace))
    try:
        run.setup()
        run.loop(args.seconds)
        # ru_maxrss is in KiB on Linux
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = None if args.record_reference else load_reference(args.workload, args.seed, args.size)
        run.check(reference)
        attempted = len(run.results)
        failed = sum(r["error"] is not None for r in run.results)
        if args.record_reference and failed == 0:
            record_reference(args.workload, run.first_digests)
        timed = sum(not r["traced"] for r in run.results)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} size={args.size} jobs={attempted} (closed loop, 1 client)")
        print("env " + json.dumps(env.record(), sort_keys=True))
        e2e = run.end_to_end(peak_rss_mb)
        notes = {"setup_s": f"median of {len(run.setup_times)} set-ups", "job_p50_s": f"median of {timed} jobs"}
        for name, value in e2e.items():
            print(f"{name} {value:.6g} {END_TO_END[name]}  {notes.get(name, '')}".rstrip())
        print(f"fail_ratio {failed / attempted:.6g} ratio  {failed} failed of {attempted} attempted")
        if run.setup_error is not None:
            print(f"perfbench: {run.setup_error}", file=sys.stderr)
        if args.trace:
            units = layer_units()
            metrics = {m: {"value": v, "unit": units[m]} for m, v in run.per_layer().items()}
            trace = run.trace_payload()
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(trace, separators=(",", ":")) + "\n")
            print(f"trace {path.relative_to(env.ROOT)} ({len(trace['spans'])} spans)")
        else:
            metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}
        return {
            "correct": failed == 0 and run.setup_error is None,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        run.cleanup()


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, then one table of the results."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=env.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:16} {name:28} {m['value']:14.6g} {m['unit']}")
        print(f"{workload:16} {'fail_ratio':28} {result['failed'] / result['attempted']:14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']})")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(SIZES), help="tiny: self-test inputs")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the default seed's reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a non-negative number")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.size != "full" or args.workload == "all"):
        parser.error(f"--record-reference needs one workload, --seed {DEFAULT_SEED} and --size full")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingSources as exc:
        print(f"perfbench: {exc}; run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
