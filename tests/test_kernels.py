"""Model files under each OpenBLAS kernel: a count table has the same bytes under every one.

Scores still move in their last bits with the kernel, so only the models are compared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN, GOLDEN_RUNS

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each argv through the CLI, then prints the name of the core of each OpenBLAS
# library the process mapped: nothing when numpy's BLAS is another library.
_TRAIN = """
import ctypes, json, sys
from qdetect.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(1)
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
for path in sorted(paths):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        corename = getattr(ctypes.CDLL(path), name, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            print(corename().decode())
            break
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the OpenBLAS library is found through /proc/self/maps")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
def test_model_files_are_the_goldens_under_each_kernel(tmp_path, core):
    argvs = [["train", "--data", str(GOLDEN / train), "--strategy", strategy, *extra,
              "--out", str(tmp_path / f"{strategy}.json")]
             for strategy, (train, extra, _) in GOLDEN_RUNS.items()]
    search = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1", PYTHONPATH=search)
    result = subprocess.run([sys.executable, "-c", _TRAIN, json.dumps(argvs)], env=env,
                            capture_output=True, text=True, timeout=300)
    if result.returncode < 0:  # an instruction that this CPU lacks
        pytest.skip(f"this host cannot run the {core} kernel (signal {-result.returncode})")
    assert result.returncode == 0, result.stderr
    if not result.stdout.strip():
        pytest.skip("numpy's BLAS is not OpenBLAS, the one library that reads OPENBLAS_CORETYPE")
    for strategy in GOLDEN_RUNS:
        name = f"{strategy}.json"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
            f"{name} under the {result.stdout.split()} kernel")
