"""The one-thread BLAS scope (same results, restored state, no-op fallback),
and results that depend on neither the BLAS thread count nor the kernel set."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellident import _blas, gp
from cellident._blas import one_blas_thread
from cellident.bayesopt import maximize_acquisition
from cellident.sampling import HaltonSampler

SRC = Path(__file__).resolve().parents[1] / "src"


def _propose(state, best):
    return maximize_acquisition(state, HaltonSampler(3, 4), best)


def test_proposal_bytes_same_inside_and_outside_the_scope():
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(99, 3))
    losses = np.sum((points - 0.3) ** 2, axis=1) + 1e-3 * rng.normal(size=99)
    state = gp.fit(points, losses)
    outside = _propose(state, float(np.min(losses)))
    with one_blas_thread():
        inside = _propose(state, float(np.min(losses)))
    assert inside.tobytes() == outside.tobytes()


def test_scope_restores_the_previous_per_thread_value():
    setters = _blas._thread_local_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports a per-thread setter")
    original = [set_local(2) for set_local in setters]
    try:
        with one_blas_thread():
            assert [set_local(1) for set_local in setters] == [1] * len(setters)
        assert [set_local(2) for set_local in setters] == [2] * len(setters)
    finally:
        for set_local, value in zip(setters, original):
            set_local(value)


class _FakeSetter:
    """Stands in for one library's setter: keeps a value, logs each call."""

    def __init__(self, value):
        self.value = value
        self.calls = []

    def __call__(self, value):
        self.calls.append(value)
        self.value, previous = value, self.value
        return previous


def test_scope_sets_one_thread_and_restores_on_error(monkeypatch):
    fakes = (_FakeSetter(2), _FakeSetter(4))
    monkeypatch.setattr(_blas, "_thread_local_setters", lambda: fakes)
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            assert [f.value for f in fakes] == [1, 1]
            with one_blas_thread():
                pass
            assert [f.value for f in fakes] == [1, 1]
            raise RuntimeError
    assert [f.value for f in fakes] == [2, 4]
    assert fakes[1].calls == [1, 1, 1, 4]


def test_scope_does_nothing_without_a_setter(monkeypatch):
    monkeypatch.setattr(_blas, "_thread_local_setters", lambda: ())
    with one_blas_thread():
        value = np.dot(np.arange(3.0), np.arange(3.0))
    assert value == 5.0


_RUN = """
import hashlib
import numpy as np
from cellident.bayesopt import BoRunConfig, run_bo
from cellident.bench import (default_config, generate_profile,
                             generate_synthetic_dataset, resolve_cell)
from cellident.identify import VoltageFitObjective, default_box

params, ocv_p, ocv_n = resolve_cell(default_config())[:3]
profile = generate_profile("rcid-like", 3600.0, 0.25, 0, params)
assert profile.n > 10_000
train, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n, [profile],
                                         [profile], 0.005, 7)
objective = VoltageFitObjective(params, ocv_p, ocv_n, default_box(), train)
digest = hashlib.sha256(objective.unit(np.full(3, 0.5)).hex().encode())
result = run_bo(objective.unit, BoRunConfig(box=default_box(), budget=14,
                                            seed=5, s0=8))
for _, theta, loss in result.trace:
    digest.update(theta.tobytes() + loss.hex().encode())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_the_thread_count():
    """A BO run and a loss on a profile of more than 10,000 samples are
    bit-identical at one and two OpenBLAS threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


_GD_RUN = """
import hashlib
from cellident.baselines import GdConfig, gradient_descent
from cellident.bench import (default_config, generate_profile,
                             generate_synthetic_dataset, resolve_cell)
from cellident.identify import VoltageFitObjective, default_box

params, ocv_p, ocv_n = resolve_cell(default_config())[:3]
long = generate_profile("rcid-like", 3600.0, 0.25, 0, params)
drive = generate_profile("drive-cycle-like", 1200.0, 0.5, 3, params)
assert long.n > 10_000
train, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n, [long, drive],
                                         [drive], 0.005, 7)
objective = VoltageFitObjective(params, ocv_p, ocv_n, default_box(), train)
result = gradient_descent(objective.unit, default_box(), GdConfig(budget=30,
                                                                  seed=4))
digest = hashlib.sha256()
for _, theta, loss in result.trace:
    digest.update(theta.tobytes() + loss.hex().encode())
print(digest.hexdigest())
"""


def test_gd_run_with_cached_terms_does_not_depend_on_the_thread_count():
    """A GD run, whose probes reuse the objective's cached voltage terms, on
    a two-profile set with one profile of more than 10,000 samples is
    bit-identical at one and two OpenBLAS threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _GD_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


_KERNEL_SET_RUN = """
import hashlib
import numpy as np
from cellident.baselines import GdConfig, PsoConfig, gradient_descent, pso
from cellident.bench import (default_config, generate_profile,
                             generate_synthetic_dataset, resolve_cell)
from cellident.identify import (IdentificationDataset, VoltageFitObjective,
                                default_box)

params, ocv_p, ocv_n = resolve_cell(default_config())[:3]
short = generate_profile("rcid-like", 3600.0, 1.0, 0, params)
long = generate_profile("rcid-like", 3600.0, 0.25, 0, params)
drive = generate_profile("drive-cycle-like", 1200.0, 0.5, 3, params)
assert (short.n, long.n) == (3601, 14401)
print(hashlib.sha256(drive.current.tobytes()).hexdigest())
train, _, _ = generate_synthetic_dataset(params, ocv_p, ocv_n, [short, long],
                                         [drive], 0.005, 7)
points = np.random.default_rng(0).uniform(size=(4, 3))
for profile, volts in zip(train.profiles, train.voltages):
    one = VoltageFitObjective(params, ocv_p, ocv_n, default_box(),
                              IdentificationDataset((profile,), (volts,)))
    print(profile.n, *(one.unit(point).hex() for point in points))
objective = VoltageFitObjective(params, ocv_p, ocv_n, default_box(), train)
for result in (gradient_descent(objective.unit, default_box(),
                                GdConfig(budget=20, seed=4)),
               pso(objective.unit, default_box(), PsoConfig(budget=20, seed=4))):
    digest = hashlib.sha256()
    for _, theta, loss in result.trace:
        digest.update(theta.tobytes() + loss.hex().encode())
    print(digest.hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel set")
def test_losses_profiles_and_baselines_do_not_depend_on_the_kernel_set():
    """Losses on a 3,601- and a 14,401-sample profile, a drive-cycle
    profile's bytes, and GD and PSO traces are bit-identical under the
    kernels OpenBLAS picks for this CPU and under Prescott's, which run on
    any x86-64 CPU.  BO is left out: the GP is BLAS."""
    outputs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", _KERNEL_SET_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


_MAPS = """
import ctypes, os

def mapped():
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(None, 5)   # the sixth is the mapped file
            path = fields[5].strip() if len(fields) == 6 else ""
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    return paths

import cellident.cli
from cellident import _blas
with _blas.one_blas_thread():
    pass
before = mapped()
with_setter = {p for p in before
               if hasattr(ctypes.CDLL(p), "openblas_set_num_threads_local")}
print(len(before), len(with_setter), len(_blas._thread_local_setters()))
import scipy.linalg
print(sorted(mapped() - before))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_scope_covers_every_openblas_the_gp_uses():
    """After the scope's first use, the scope finds each mapped OpenBLAS
    copy that has a per-thread setter, and a later ``import scipy.linalg``
    maps no further copy: the first scope loads scipy's LAPACK, and its
    OpenBLAS with it, before it looks."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _MAPS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts, added = proc.stdout.splitlines()
    mapped, with_setter, found = map(int, counts.split())
    assert mapped >= 1
    assert found == with_setter
    assert added == "[]"


_FIRST_USE = """
from cellident import _blas
first = len(_blas._thread_local_setters())
from cellident import gp
after_gp = len(_blas._thread_local_setters())
_blas._thread_local_setters.cache_clear()
print(first, after_gp, len(_blas._thread_local_setters()))
"""


def test_first_lookup_before_gp_finds_every_setter():
    """A process whose first scope runs before ``gp`` is imported still
    caches scipy's OpenBLAS setter: the counts before and after importing
    ``gp`` equal a fresh lookup's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FIRST_USE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, after_gp, fresh = map(int, proc.stdout.split())
    assert first == after_gp == fresh
