import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A solve and a sweep in a fresh interpreter, then the modules they must not
# have loaded: numpy.random pulls in secrets, hashlib and OpenSSL's _hashlib,
# about 6 MB of resident memory, and the starts need none of it.
SCRIPT = """
import sys
from halfwave import Grid, SolverConfig, builtin_family, solve_ground_state
from halfwave.semiclassical import concentration_sweep, single_well

fam = builtin_family("cubic_exp", beta0=1.0)
solve_ground_state(fam, 1.0, Grid(40.0, 512), SolverConfig(restarts=2, seed=0))
concentration_sweep([1.0, 0.7, 0.5, 0.35], single_well(1.0, 2.0), fam, Grid(40.0, 512),
                    SolverConfig(restarts=2, seed=0))
print(" ".join(m for m in ("numpy.random", "secrets", "hashlib", "_hashlib") if m in sys.modules))
"""


def test_solve_and_sweep_load_no_numpy_random():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
