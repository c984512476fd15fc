"""kerrloss benchmark: one command that times a workload and checks it.

    python3 perfbench/run.py --workload evolve_warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each pass runs in a fresh interpreter (``perfbench/worker.py``) with one
BLAS/OpenMP thread; passes repeat while the next one would end within
``--seconds`` of wall time.  The outputs are checked against an independent
route outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics (medians over the
passes).  Its times are taken at a reference host speed, measured by a probe
inside each pass (``perfbench/speed.py``): the shared hosts this runs on
change speed by up to 2x within seconds.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 on a completed run
(``correct`` says whether the outputs passed), 2 when the run could not be
made at all.  This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("evolve_warm", "scan_cold", "noise_grid", "noise_moments")
#: one BLAS/OpenMP thread: on the 2-core machine this was sized on, a
#: noise_grid pass took 8.2 s pinned and 20.5 s at OpenBLAS's default of 2
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    paths = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_one_pass(workload: str, seed: int, traced: bool, checked_digest: str | None) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)), "--spawned-at", repr(spawned_at)]
    if checked_digest:
        cmd += ["--checked-digest", checked_digest]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """At least two passes, then more while the next one, taking as long as
    the last, still ends within ``seconds`` of the start.

    A traced run alternates untraced and traced passes.  Only the first pass
    runs the checks; a later pass whose output digest matches it takes over
    its verdict, and one that differs is checked in full.
    """
    passes = []
    checked = None
    start = last = time.monotonic()
    while len(passes) < 2 or 2 * time.monotonic() - last - start <= seconds:
        last = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        result = run_one_pass(workload, seed, traced, checked["digest"] if checked else None)
        if result["checked"]:
            checked = checked or result
        else:
            for key in ("failed", "accuracy_digits", "checks"):
                result[key] = checked[key]
        result["traced"] = traced
        passes.append(result)
    return passes


def summarise(passes: list[dict], trace: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["trace"][name] for p in traced)
                  for name in traced[0]["trace"]}
        values["trace.overhead_ratio"] = (
            statistics.median(p["solve_s"] for p in traced)
            / statistics.median(p["solve_s"] for p in untraced))
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "solve_s": statistics.median(p["solve_s"] for p in untraced),
            # every pass computes the same numbers; report the worst one
            "accuracy_digits": min(p["accuracy_digits"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "pass_ratio": (attempted - failed) / attempted,
        }
    # BENCHMARK.json names every metric and its unit
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(workload: str, seed: int, passes: list[dict], result: dict) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    env = passes[0]["environment"]
    print(f"workload {workload}  seed {seed}  passes {len(passes)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        checks = f"checks {p['check_s']:.2f} s" if p["checked"] else "checks reused"
        print(f"pass {i} ({kind}): setup {p['setup_s']:.3f} s (wall {p['setup_wall_s']:.3f} s)  "
              f"solve {p['solve_s']:.3f} s (wall {p['wall_s']:.3f} s, "
              f"cpu {p['solve_cpu_s']:.3f} s, host speed {p['speed']:.3f} "
              f"from {p['probe_samples']} samples)  {checks}  rss {p['peak_rss_mb']:.1f} MB  "
              f"ops {p['attempted']}  failed {p['failed']}  digest {p['digest'][:16]}")
        for msg in p["raised"]:
            print(f"  raised: {msg}")
    for name, c in passes[0]["checks"].items():
        status = "ok" if c["ok"] else "FAIL"
        print(f"check {name}: worst deviation {c['deviation']:.3e} "
              f"(tolerance {c['tolerance']:.0e}) {status}")
    digests = {p["digest"] for p in passes}
    print(f"digest {'identical in all passes' if len(digests) == 1 else 'DIFFERS between passes'}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kerrloss", "__init__.py")):
        print(f"no kerrloss sources under {ROOT}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        result = summarise(passes, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, passes, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
