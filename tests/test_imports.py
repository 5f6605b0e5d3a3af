"""What a fresh interpreter loads: the package and its CLI import numpy and the
standard library only; scipy loads in log_energy's Beta-marginal branch, the
one place that uses it."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys
from degrootnet import cli
print("scipy" in sys.modules)
cli.run(["influence", "--model", "ring", "--n", "3", "--replicas", "4", "--tmax", "200", "--seed", "1"])
print("scipy" in sys.modules)
cli.run(["energy", "--mu", "arcsine-indep"])
print("scipy" in sys.modules)
"""


def test_cli_loads_scipy_only_for_beta_marginal_energy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "False"  # after the imports
    assert out[1].startswith("influence") and out[2] == "False"
    # the value printed before scipy's import moved into log_energy
    assert out[3:] == ["energy: I_mu=1.3862943611", "True"]
