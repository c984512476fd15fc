"""One benchmark pass in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python -m perfbench.worker``; a fresh
process per pass means the library's module-level caches start empty, as
they do for every command-line invocation.  The pass:

1. imports the library and builds the inputs from the seed (set-up),
2. runs the op list once, timed, with or without the tracer,
3. hashes the outputs and, unless they are the bytes of a pass already
   checked, compares every output with its independent reference (not timed),

and prints one JSON object on its last stdout line.  A speed probe
(``perfbench/speed.py``) samples how fast the host runs a fixed kernel
during steps 1 and 2, and both times are reported at the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import platform
import resource
import sys
import time


def _digest_update(h, value) -> None:
    """Feed the numeric content of one op's output into the digest."""
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, str):
        h.update(value.encode())
    elif isinstance(value, (bool, int, float, complex, np.generic)):
        h.update(np.asarray(value, dtype=complex).tobytes())
    elif isinstance(value, enum.Enum):
        h.update(str(value.value).encode())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            _digest_update(h, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest_update(h, item)
    elif value is None:
        h.update(b"none")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _digest_update(h, getattr(value, f.name))
    else:
        # FockState
        _digest_update(h, value.entries)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(workload: str, seed: int, traced: bool, spawned_at: float,
             checked_digest: str | None = None) -> dict:
    from .speed import SpeedProbe  # imports numpy and scipy.linalg

    with SpeedProbe() as setup_probe:
        from kerrloss.noise import GridAdequacyError, TruncationError
        from kerrloss.oracle import StiffnessError
        from kerrloss.specfun import VanishingDenominatorError
        from kerrloss.superops import InternalConsistencyError

        from . import tracer as tracing
        from .workloads import WORKLOADS, accuracy_digits

        gate_errors = (GridAdequacyError, TruncationError, StiffnessError,
                       VanishingDenominatorError, InternalConsistencyError)
        make_inputs, make_ops, make_checks = WORKLOADS[workload]
        inputs = make_inputs(seed)
        ops = make_ops(inputs)
        setup_wall_s = time.monotonic() - spawned_at - setup_probe.spent

    outputs, raised = [], {}
    with SpeedProbe() as probe:
        # spans exclude the probe's samples, as the pass time does
        tracer = tracing.Tracer(clock=probe.clock)
        with tracing.install(tracer) if traced else contextlib.nullcontext():
            start, start_cpu = probe.clock(), time.process_time()
            for i, (label, thunk) in enumerate(ops):
                try:
                    outputs.append(thunk())
                except gate_errors as exc:
                    outputs.append(None)
                    raised[i] = f"{label}: {type(exc).__name__}: {exc}"
            wall_s = probe.clock() - start
            solve_cpu_s = time.process_time() - start_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    for out in outputs:
        _digest_update(digest, out)
    result = {
        "setup_s": setup_wall_s * setup_probe.speed(),
        "setup_wall_s": setup_wall_s,
        "solve_s": wall_s * probe.speed(),
        "wall_s": wall_s,
        "speed": probe.speed(),
        "probe_samples": len(probe.samples),
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "raised": list(raised.values()),
        "digest": digest.hexdigest(),
        "trace": tracer.metrics(wall_s) if traced else None,
        "environment": environment(),
        "checked": False,
        "check_s": 0.0,
    }
    if result["digest"] == checked_digest:
        # the same bytes as an already checked pass: its verdict holds
        return result

    # an op that raised has no output to compare; the pass then counts its
    # raised ops as failed and reports no accuracy
    check_start = time.perf_counter()
    checks = make_checks(inputs, outputs) if not raised else []
    failed_ops = set(raised) | {c.op for c in checks if not c.ok}
    worst = {}  # each check name has one tolerance
    for c in checks:
        if c.name not in worst or c.deviation > worst[c.name].deviation:
            worst[c.name] = c
    result.update(
        checked=True,
        check_s=time.perf_counter() - check_start,
        failed=len(failed_ops),
        accuracy_digits=accuracy_digits(checks) if checks else 0.0,
        checks={name: {"deviation": c.deviation, "tolerance": c.tolerance, "ok": c.ok}
                for name, c in worst.items()},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--checked-digest", default=None,
                        help="digest of a pass already checked; equal outputs skip the checks")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.traced), args.spawned_at,
                      args.checked_digest)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
