"""Import cost follows the command: each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after(script: str, cwd) -> list:
    """Run ``script`` in a fresh interpreter; it prints JSON on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_with_the_code_that_uses_it(tmp_path):
    after_import, codes, after_run = loaded_after(
        """
        import json, sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        from kerrloss import cli
        after_import = scipy_modules()
        codes = [cli.main([cmd, "--out", cmd]) for cmd in ("spectrum", "eigvecs", "evolve")]
        print(json.dumps([after_import, codes, scipy_modules()]))
        """,
        tmp_path,
    )
    assert after_import == []
    assert codes == [0, 0, 0]
    assert after_run == []

    before_ode, after_ode = loaded_after(
        """
        import json, sys
        import kerrloss.noise
        from kerrloss.fockbasis import FockState, Truncation
        from kerrloss.oracle import ode_propagate
        from kerrloss.superops import ModelParams, full_generator

        before = "scipy.integrate" in sys.modules
        trunc = Truncation(3)
        ode_propagate(full_generator(ModelParams(1.0, 0.5, 0.4, 0.6), trunc),
                      FockState.vacuum(trunc), 0.1)
        print(json.dumps([before, "scipy.integrate" in sys.modules]))
        """,
        tmp_path,
    )
    assert not before_ode
    assert after_ode


def test_cli_and_closed_form_commands_load_no_numpy_polynomial(tmp_path):
    # finite-difference moments live in the tests, so the CLI and the
    # closed-form commands import no polynomial fits
    after_import, codes, after_run = loaded_after(
        """
        import json, sys

        def polynomial_modules():
            return sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))

        from kerrloss import cli
        after_import = polynomial_modules()
        codes = [cli.main([cmd, "--out", cmd]) for cmd in ("spectrum", "eigvecs", "evolve")]
        print(json.dumps([after_import, codes, polynomial_modules()]))
        """,
        tmp_path,
    )
    assert after_import == []
    assert codes == [0, 0, 0]
    assert after_run == []
