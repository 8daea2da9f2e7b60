"""Workload definitions and the set-up phase every workload starts with.

Set-up is a fresh ``import cellident``, loading the packaged reference cell,
generating the excitation profiles and synthesizing the measured voltages:
everything before the first optimizer call.  Only the standard library is
imported at module level, so the import this module times is also the first
import of numpy and scipy in the process.

Run as a script, it performs one set-up in a fresh interpreter and prints its
timings as one JSON line; ``run.py`` starts it a few times to take a median:

    python3 perfbench/fresh_setup.py --workload bo-long --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: which optimizers, how much data, how often.

    ``train`` and ``test`` list ``(kind, duration_s, dt_s)`` profile specs.
    ``reps`` repetition seeds times ``methods`` optimizer runs make one
    cycle; a run repeats whole cycles until its measuring time is spent.
    ``cli`` workloads run ``cellident bench`` in-process once per cycle
    instead.  A field left None takes the value of the package's default
    config, so such a workload follows what the command does by default.
    """

    name: str
    methods: tuple[str, ...] | None = None
    budget: int | None = None
    reps: int | None = None
    train: tuple[tuple[str, float, float], ...] | None = None
    test: tuple[tuple[str, float, float], ...] | None = None
    noise_sigma_v: float | None = None
    cli: bool = False


DRIVE_TEST = (("drive-cycle-like", 1800.0, 1.0),)

WORKLOADS = {
    "bo-long": Workload(
        name="bo-long", methods=("bo",), budget=100, reps=4,
        train=(("rcid-like", 3600.0, 1.0),), test=DRIVE_TEST,
        noise_sigma_v=0.0),
    "sim-heavy": Workload(
        name="sim-heavy", methods=("gd", "pso", "random"), budget=100, reps=8,
        train=(("rcid-like", 3600.0, 0.25), ("drive-cycle-like", 7200.0, 0.5)),
        test=DRIVE_TEST, noise_sigma_v=0.005),
    "paper-default": Workload(name="paper-default", cli=True),
}


def resolve(workload: Workload, config) -> Workload:
    """``workload`` with every field it leaves None taken from ``config``."""
    def specs(profiles):
        return tuple((p.kind, p.duration_s, p.dt_s) for p in profiles)

    defaults = {"methods": tuple(config.methods), "budget": config.budget,
                "reps": config.repetitions,
                "train": specs(config.train_profiles),
                "test": specs(config.test_profiles),
                "noise_sigma_v": config.noise_sigma_v}
    return replace(workload, **{k: v for k, v in defaults.items()
                                if getattr(workload, k) is None})


def add_source_path(root: Path) -> Path:
    """Put the checkout's ``src`` first on sys.path; exit 2 if it is absent."""
    src = (root / "src").resolve()
    if not (src / "cellident" / "__init__.py").is_file():
        print(f"perfbench: no cellident sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    return src


@dataclass
class Setup:
    """Everything an optimizer run needs, plus how long it took to build.

    ``workload`` is the resolved workload and ``config`` the package's
    default config, whose master seed and ``s0`` every run uses.
    """

    workload: Workload
    config: object
    params: object
    ocv_p: object
    ocv_n: object
    box: object
    train: object
    test: object
    truth: tuple[float, float, float]
    timings: dict


def setup(workload: Workload, seed: int, src: Path) -> Setup:
    """Fresh import, cell load, profile generation and data synthesis."""
    t0 = time.perf_counter()
    import numpy as np

    import cellident
    from cellident import bench
    if workload.cli:
        import cellident.cli  # noqa: F401  (the command the workload runs)
    t_import = time.perf_counter()
    if not Path(cellident.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported cellident from {cellident.__file__}, "
                           f"not from {src}")

    config = bench.default_config()
    workload = resolve(workload, config)
    params, ocv_p, ocv_n, _ = bench.resolve_cell(config)
    t_params = time.perf_counter()

    # spawn rule of run_benchmark: [profiles, noise, rep 0, rep 1, ...];
    # training profiles and noise come from the workload seed, the test
    # profiles from the master seed, so test losses compare across seeds.
    # ``cellident bench`` derives all of its data from the master seed.
    specs = workload.train + workload.test
    n_train = len(workload.train)
    profile_ss, noise_ss = np.random.SeedSequence(
        config.master_seed if workload.cli else seed).spawn(2)
    panel_profile_ss, _ = np.random.SeedSequence(config.master_seed).spawn(2)
    children = (profile_ss.spawn(len(specs))[:n_train]
                + panel_profile_ss.spawn(len(specs))[n_train:])
    profiles = [bench.generate_profile(kind, duration, dt, child, params)
                for (kind, duration, dt), child in zip(specs, children)]
    t_profiles = time.perf_counter()

    train, test, _ = bench.generate_synthetic_dataset(
        params, ocv_p, ocv_n, profiles[:n_train], profiles[n_train:],
        workload.noise_sigma_v, noise_ss)
    t_end = time.perf_counter()
    timings = {
        "setup_s": t_end - t0,
        "cellident.import_s": t_import - t0,
        "params.load_s": t_params - t_import,
        "profiles.generate_s": t_profiles - t_params,
        "bench.synthesize_s": t_end - t_profiles,
    }
    return Setup(workload=workload, config=config, params=params,
                 ocv_p=ocv_p, ocv_n=ocv_n, box=config.box, train=train,
                 test=test, truth=(params.k_p, params.k_n, params.D_e),
                 timings=timings)


def rep_seed(master_seed: int, rep: int):
    """A fresh SeedSequence for repetition ``rep`` (run_bo spawns from it).

    Optimizer repetition seeds are spawned from the master seed exactly as
    ``cellident bench`` spawns them, so every run of a workload replays the
    same optimizer runs and the quality metrics compare like with like.
    """
    import numpy as np
    return np.random.SeedSequence(master_seed).spawn(2 + rep + 1)[2 + rep]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    src = add_source_path(Path.cwd())
    print(json.dumps(setup(WORKLOADS[args.workload], args.seed, src).timings))


if __name__ == "__main__":
    main()
