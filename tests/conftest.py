import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchbench
from matchbench import MatchedSample, counterexample_market, simulate_market


@pytest.fixture(scope="session")
def counterexample_sample_1m() -> MatchedSample:
    """One large benchmark-market sample shared by the Monte Carlo checks."""
    return simulate_market(counterexample_market(), 1_000_000, seed=20240523)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def fresh_python():
    """Run ``python *args`` in a new interpreter and return its standard output.

    The child imports matchbench from wherever this process found it;
    keyword arguments are extra environment variables.
    """
    src = str(Path(matchbench.__file__).parents[1])

    def run(*args, **env):
        env = dict(os.environ, **env,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
