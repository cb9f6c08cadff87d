"""Helpers shared by the workloads: paths, statistics, memory, calibration.

Nothing here imports :mod:`repro`; :func:`import_repro` puts the checkout's
``src/`` first on ``sys.path`` and refuses any other copy of the package,
so the benchmark always measures the tree it was started in.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for sockets, databases and span files, inside the checkout.
#: Paths handed to subprocesses are relative to ROOT (unix socket paths are
#: limited to ~108 bytes, and the checkout may sit deep in the filesystem).
RUN_DIR = Path(".perfbench_run")


class BenchError(RuntimeError):
    """The benchmark could not run (missing source tree, daemon died, ...)."""


def import_repro():
    """Import ``repro`` from ``ROOT/src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTS", None)  # never inherit a fault plan
    return env


def run_dir(tag: str) -> Path:
    """A fresh scratch directory, relative to ROOT, inside this run's own
    directory (``PERFBENCH_RUN_DIR``, set by ``run.py`` for its children)."""
    base = Path(os.environ.get("PERFBENCH_RUN_DIR", str(RUN_DIR)))
    path = base / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    (ROOT / path).mkdir(parents=True, exist_ok=False)
    return path


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[hi] == data[lo]:  # also keeps inf - inf out
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- memory ----------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another live process's high-water mark (``VmHWM`` from /proc)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- calibration -----------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the loaded NumPy, when it can be queried."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_ticks() -> Sequence[int]:
    """Machine-wide CPU time counters (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta)) if len(delta) > 7 else 0.0


def calibrate() -> Dict[str, object]:
    """Fixed reference work timed on this machine, plus its identity.

    The two timings (a pure-Python loop and a NumPy matmul + solve) do not
    depend on the code under test, so comparing them across runs tells
    machine drift apart from a regression.  Medians of five repeats.
    """
    import numpy as np

    def py_loop() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - start

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    spd = a @ a.T + 192.0 * np.eye(192)
    rhs = rng.standard_normal((192, 8))

    def np_kernel() -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.solve(spd, a @ rhs)
        return time.perf_counter() - start

    return {
        "py_loop_ms": 1000.0 * median([py_loop() for _ in range(5)]),
        "np_matmul_solve_ms": 1000.0 * median([np_kernel() for _ in range(5)]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- output ----------------------------------------------------------------------


def emit(tag: str, payload: object) -> None:
    """One tagged JSON line on stdout (informational; not the result line)."""
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)
