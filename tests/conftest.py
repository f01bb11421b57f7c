import os
import subprocess
import sys
from pathlib import Path

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

import pytest

import fanochain
from fanochain import ChainModel

#: The source tree of the package under test, first on a child interpreter's path.
_SRC = str(Path(fanochain.__file__).resolve().parents[1])


@pytest.fixture
def semi_model():
    """The work-horse parameter set: three well-separated resonances."""
    return ChainModel.semi_infinite(4, -0.5, 0.2)


@pytest.fixture
def infinite_model():
    return ChainModel.infinite(-0.6, 0.2)


@pytest.fixture
def python_child():
    """Run a fresh interpreter on the package under test: python_child(*args, env=None)
    is the CompletedProcess of ``python *args``, with stdout and stderr as bytes, in this
    process's environment with the variables of ``env`` set over it."""
    path = os.environ.get("PYTHONPATH")
    base = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))

    def child(*args, env=None):
        return subprocess.run([sys.executable, *args], env={**base, **(env or {})},
                              capture_output=True, timeout=120)

    return child
