"""Per-layer spans and counts, recorded from outside the library.

:func:`install` wraps the public functions at each layer boundary of
``kerrloss`` and rebinds every wrapper in each ``kerrloss`` module namespace
that holds the function: modules import each other's functions by name
(``noise`` imports ``expm_propagate`` and ``multi_time_correlator`` from
``oracle``), so patching the defining module alone would miss those calls.
Nothing under ``src/`` changes.

Spans are timed and nest; a span's self time is its duration minus the
durations of the spans it directly contains.  The scalar helpers that run
more than 1e5 times per pass are only counted, because timing them would
distort the pass they measure.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Aggregated spans (calls, inclusive and self time) and plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # one accumulator of child-span time per open span
        self._open: list[float] = []
        # noise-layer bookkeeping for the useful-work ratios
        self.eig_inputs: set[bytes] = set()
        self.z_evaluated = 0
        self.z_distinct = 0
        self.doublings = 0
        self._grid_scopes: list[list] = []

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.incl[name] += duration
                self.self_time[name] += duration - children
                if self._open:
                    self._open[-1] += duration

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- noise-layer hooks -------------------------------------------------

    def dense_eig(self, fn):
        timed = self.span("noise.dense_eig", fn)

        def wrapper(a, *args, **kwargs):
            self.eig_inputs.add(hashlib.blake2b(memoryview(a).tobytes(), digest_size=16).digest())
            return timed(a, *args, **kwargs)

        return wrapper

    def run_noise(self, fn):
        timed = self.span("noise.run_noise", fn)

        def wrapper(*args, **kwargs):
            self._grid_scopes.append([])
            try:
                return timed(*args, **kwargs)
            finally:
                self._close_grid_scope(self._grid_scopes.pop())

        return wrapper

    def generating_function(self, fn):
        timed = self.span("noise.generating_function", fn)

        def wrapper(params, initial, t, J_grid, *args, **kwargs):
            half = [round(float(J), 12) for J in J_grid if J >= 0]
            if self._grid_scopes:
                self._grid_scopes[-1].append(half)
            else:
                self._close_grid_scope([half])
            return timed(params, initial, t, J_grid, *args, **kwargs)

        return wrapper

    def _close_grid_scope(self, grids: list) -> None:
        """One run_noise (or a bare generating_function call) has ended."""
        self.z_evaluated += sum(len(g) for g in grids)
        self.z_distinct += len({J for g in grids for J in g})
        self.doublings += max(0, len(grids) - 1)

    # -- report ------------------------------------------------------------

    def metrics(self, solve_s: float) -> dict[str, float]:
        """Counts, ratios, and span times as shares of the traced pass.

        A share is the span's self time (inclusive where the name says
        ``incl``) over ``solve_s``; it reads 0 for a layer the pass never
        enters, and it does not move with the speed of the machine.
        """
        c = self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        def share(name, incl=False):
            return ratio((self.incl if incl else self.self_time)[name], solve_s)

        lookups = c["evolution.g_lookups"]
        return {
            "evolution.propagate_calls": c["evolution.propagate"],
            "evolution.propagate_share": share("evolution.propagate"),
            "evolution.heisenberg_share": share("evolution.heisenberg"),
            "evolution.g_lookups": lookups,
            "evolution.g_coefficient_calls": c["evolution.g_coefficient"],
            "evolution.g_coefficient_share": share("evolution.g_coefficient", incl=True),
            "evolution.g_hit_ratio": ratio(lookups - c["evolution.g_coefficient"], lookups),
            "specfun.hyp2f1_calls": c["specfun.hyp2f1"],
            "specfun.sqrt_binom_calls": c["specfun.sqrt_binom"],
            "spectral.decompose_calls": c["spectral.decompose"],
            "spectral.decompose_share": share("spectral.decompose", incl=True),
            "spectral.eigvec_calls": c["spectral.eigvec"],
            "spectral.eigvec_share": share("spectral.eigvec"),
            "spectral.eigenvalue_calls": c["spectral.eigenvalue"],
            "spectral.x_parameter_calls": c["spectral.x_parameter"],
            "fockbasis.blocks_calls": c["fockbasis.blocks"],
            "fockbasis.blocks_share": share("fockbasis.blocks"),
            "superops.sparse_build_calls": c["superops.sparse_build"],
            "superops.sparse_build_share": share("superops.sparse_build"),
            "oracle.expm_propagate_calls": c["oracle.expm_propagate"],
            "oracle.expm_propagate_share": share("oracle.expm_propagate", incl=True),
            "oracle.expm_multiply_calls": c["oracle.expm_multiply"],
            "oracle.correlator_calls": c["oracle.correlator"],
            "oracle.correlator_share": share("oracle.correlator", incl=True),
            "noise.xi_evolve_calls": c["noise.xi_evolve"],
            "noise.xi_evolve_share": share("noise.xi_evolve"),
            "noise.dense_eig_calls": c["noise.dense_eig"],
            "noise.dense_eig_share": share("noise.dense_eig"),
            "noise.eig_useful_ratio": ratio(len(self.eig_inputs), c["noise.dense_eig"]),
            "noise.z_useful_ratio": ratio(self.z_distinct, self.z_evaluated),
            "noise.grid_doublings": self.doublings,
            "noise.generating_function_share": share("noise.generating_function", incl=True),
            "noise.density_share": share("noise.density", incl=True),
            "noise.cumulant_share": share("noise.cumulant", incl=True),
            "noise.quadrature_share": share("noise.quadrature", incl=True),
        }


#: (module, function) -> span name; every namespace holding the function is patched
SPANS = {
    ("kerrloss.fockbasis", "to_blocks"): "fockbasis.blocks",
    ("kerrloss.fockbasis", "from_blocks"): "fockbasis.blocks",
    ("kerrloss.spectral", "decompose"): "spectral.decompose",
    ("kerrloss.spectral", "right_eigenvector"): "spectral.eigvec",
    ("kerrloss.spectral", "left_eigenvector"): "spectral.eigvec",
    ("kerrloss.evolution", "propagate_phi"): "evolution.propagate",
    ("kerrloss.evolution", "heisenberg_phi"): "evolution.heisenberg",
    ("kerrloss.evolution", "heisenberg_a_factor"): "evolution.heisenberg",
    ("kerrloss.evolution", "g_coefficient"): "evolution.g_coefficient",
    ("kerrloss.oracle", "expm_propagate"): "oracle.expm_propagate",
    ("kerrloss.oracle", "multi_time_correlator"): "oracle.correlator",
    ("kerrloss.noise", "xi_evolve"): "noise.xi_evolve",
    ("kerrloss.noise", "probability_density"): "noise.density",
    ("kerrloss.noise", "cumulant_trace"): "noise.cumulant",
    ("kerrloss.noise", "moment_by_correlator_quadrature"): "noise.quadrature",
}

#: scalar helpers called more than 1e5 times per pass: counted, not timed
COUNTS = {
    ("kerrloss.specfun", "hyp2f1_terminating"): "specfun.hyp2f1",
    ("kerrloss.specfun", "sqrt_binom"): "specfun.sqrt_binom",
    ("kerrloss.spectral", "eigenvalue"): "spectral.eigenvalue",
    ("kerrloss.spectral", "x_parameter"): "spectral.x_parameter",
}


def _rebind_everywhere(original, wrapper, undo: list) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kerrloss" or name.startswith("kerrloss.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


@contextmanager
def install(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block, then restore.

    A function the library no longer has is skipped, and its metrics read 0.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    from kerrloss import evolution, noise, superops

    functions = [(sys.modules.get(mod), fn, lambda f, n=name, m=make: m(n, f))
                 for table, make in ((SPANS, tracer.span), (COUNTS, tracer.count))
                 for (mod, fn), name in table.items()]
    functions += [(noise, "run_noise", tracer.run_noise),
                  (noise, "generating_function", tracer.generating_function)]
    attributes = [
        (superops.GeneratorAction, "sparse_matrix",
         lambda f: tracer.span("superops.sparse_build", f)),
        (evolution.PropagatorCoefficients, "g", lambda f: tracer.count("evolution.g_lookups", f)),
        # library entry points, looked up as module attributes at call time
        (scipy.linalg, "eig", tracer.dense_eig),
        (scipy.sparse.linalg, "expm_multiply", lambda f: tracer.count("oracle.expm_multiply", f)),
    ]
    undo: list = []
    try:
        for module, fname, make in functions:
            original = getattr(module, fname, None)
            if original is not None:
                _rebind_everywhere(original, make(original), undo)
        for owner, attr, make in attributes:
            original = getattr(owner, attr, None)
            if original is not None:
                undo.append((owner, attr, original))
                setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
