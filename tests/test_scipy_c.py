"""scipy's filter, ndtr and LAPACK routines, taken without their
subpackages: the same bits as the public functions, the public function as
the fallback, and an import of the command line that leaves scipy itself,
scipy.signal, scipy.special and scipy.linalg out."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
import scipy.special

from cellident import bayesopt, ecm
from cellident._scipy_c import routine

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("n", [1, 2, 17, 3_601, 28_801])
def test_filter_gives_the_bits_of_lfilter(n):
    """First-order lags as ``lag_response`` builds them: random poles in
    (0, 1), random gains, random input."""
    rng = np.random.default_rng(n)
    for _ in range(10):
        pole = rng.uniform(0.0, 1.0)
        b = np.array([0.0, rng.normal() * (1.0 - pole)])
        a = np.array([1.0, -pole])
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        got = ecm._linear_filter(b, a, x, -1)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == scipy.signal.lfilter(b, a, x).tobytes()


def test_lag_response_gives_the_bits_of_lfilter():
    rng = np.random.default_rng(3)
    u = rng.normal(size=3_601)
    a = np.exp(-0.25 / 7.0)
    want = scipy.signal.lfilter([0.0, 0.3 * (1.0 - a)], [1.0, -a], u)
    assert ecm.lag_response(0.3, 7.0, u, 0.25).tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0, 5.0, 40.0])
def test_ndtr_gives_the_bits_of_scipy_special(scale):
    z = np.random.default_rng(int(scale)).normal(scale=scale, size=10_000)
    assert bayesopt._ndtr()(z).tobytes() == scipy.special.ndtr(z).tobytes()


def test_ndtr_special_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -38.5, -40.0, 1e-300])
    got = bayesopt._ndtr()(z)
    assert got.tobytes() == scipy.special.ndtr(z).tobytes()
    assert got[2] == 1.0 and got[3] == 0.0 and np.isnan(got[4])


def test_missing_extension_or_name_falls_back_to_the_public_function():
    assert routine("signal", "_no_such_extension", "_linear_filter",
                   "lfilter") is scipy.signal.lfilter
    assert routine("signal", "_sigtools", "_no_such_name",
                   "lfilter") is scipy.signal.lfilter
    assert routine("special", "_no_such_extension", "ndtr",
                   "ndtr") is scipy.special.ndtr
    for name in ("dpotrf", "dtrtrs", "dtrtri"):
        public = getattr(scipy.linalg.lapack, name)
        assert routine("linalg", "_no_such_extension", name,
                       f"lapack.{name}") is public
        assert routine("linalg", "_flapack", "_no_such_name",
                       f"lapack.{name}") is public


def test_routine_after_scipy_imported_the_extension():
    """Once scipy.signal is imported, the routine is its own module's, and
    scipy's sys.modules entry stays."""
    module = sys.modules["scipy.signal._sigtools"]
    assert routine("signal", "_sigtools", "_linear_filter",
                   "lfilter") is module._linear_filter
    assert sys.modules["scipy.signal._sigtools"] is module


_IMPORT = """
import sys
import cellident.cli
from cellident import bayesopt, ecm, gp
left_out = ("scipy", "scipy.signal", "scipy.special", "scipy.stats",
            "scipy.linalg", "scipy.signal._sigtools",
            "scipy.special._special_ufuncs", "scipy.linalg._flapack")
print(sorted(m for m in left_out if m in sys.modules))
ndtr = bayesopt._ndtr()
lapack = [gp._lapack(name) for name in ("dpotrf", "dtrtrs", "dtrtri")]
print(sorted(m for m in left_out if m in sys.modules))
import scipy.linalg, scipy.signal, scipy.special
print(scipy.signal._sigtools._linear_filter is ecm._linear_filter,
      scipy.special.ndtr is ndtr is bayesopt._ndtr(),
      scipy.linalg.lapack.dpotrf is lapack[0] is gp._lapack("dpotrf"),
      scipy.linalg.lapack.dtrtrs is lapack[1] is gp._lapack("dtrtrs"),
      scipy.linalg.lapack.dtrtri is lapack[2] is gp._lapack("dtrtri"))
"""


def test_cli_import_leaves_scipy_signal_and_special_out():
    """A fresh ``import cellident.cli`` imports neither scipy's package
    ``__init__`` nor any of the three subpackages; loading ``ndtr`` and the
    LAPACK routines keeps their extensions out of sys.modules too, and a
    later import of each subpackage hands out the same function objects."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]",
                                        "True True True True True"]


_MAPPED = """
import json, os, sys
from pathlib import Path

def mapped():
    names = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(None, 5)   # the sixth is the mapped file
            if len(fields) == 6:
                names.add(os.path.basename(fields[5].strip()))
    return names

def report(label):
    names = mapped()
    print("maps", label,
          any(n.startswith("_flapack.") for n in names),
          any(n.startswith("_special_ufuncs.") for n in names),
          sorted(n for n in names if "openblas" in n.lower()
                 and n not in numpy_blas))

import numpy
numpy_blas = {n for n in mapped() if "openblas" in n.lower()}
from cellident.cli import main
report("import")
out = Path(sys.argv[1])
config = out / "config.json"
config.write_text(json.dumps({
    "budget": 12, "repetitions": 1,
    "train_profiles": [{"kind": "rcid-like", "duration_s": 600.0, "dt_s": 1.0}],
    "test_profiles": [{"kind": "drive-cycle-like", "duration_s": 300.0,
                       "dt_s": 1.0}]}))
main(["bench", "--config", str(config), "--method", "gd",
      "--out", str(out / "gd")], standalone_mode=False)
main(["identify", "--config", str(config), "--data",
      str(out / "gd" / "dataset" / "manifest.json"), "--method", "pso",
      "--out", str(out / "pso")], standalone_mode=False)
report("gd-pso")
main(["identify", "--config", str(config), "--data",
      str(out / "gd" / "dataset" / "manifest.json"), "--method", "bo",
      "--out", str(out / "bo")], standalone_mode=False)
report("bo")
import scipy.linalg, scipy.special
report("scipy")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_only_a_surrogate_maps_lapack_and_special(tmp_path):
    """``import cellident.cli``, a GD bench and a PSO fit map neither
    scipy's LAPACK, nor its ``_special_ufuncs``, nor any OpenBLAS beyond
    numpy's; a short BO run maps both extensions and every OpenBLAS that
    importing ``scipy.linalg`` and ``scipy.special`` would."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _MAPPED, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
             if line.startswith("maps ")]
    assert lines[:2] == ["import False False []", "gd-pso False False []"]
    assert lines[2].startswith("bo True True ")
    assert lines[3] == "scipy" + lines[2][len("bo"):]


def test_import_without_scipy_raises_import_error():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; sys.modules['scipy'] = None\n"
            "try:\n    import cellident._scipy_c\n"
            "except ImportError as exc:\n    print(exc.name)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "scipy"
