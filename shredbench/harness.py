"""Run environment, host probe, round loop and result printing.

:func:`pin_environment` must run before NumPy is imported: it pins every
BLAS pool to one thread (an idle OpenBLAS worker spins on the core the
serving worker needs) and points the library's weight and kernel caches
at directories the benchmark owns inside the checkout.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".shredbench_cache"
OUT = ROOT / ".shredbench_out"
#: Backbone weights, the serving collection and the warm stamp: set by
#: :func:`pin_environment` to one directory per state of the library source.
ARTIFACTS = CACHE / "warm"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no library source to benchmark."""


def pin_environment() -> None:
    """Pin BLAS pools, own the caches and scratch space, and put ``src``
    first on the path.

    Raises :class:`SourceMissing` when the checkout has no ``src/repro``:
    the benchmark measures the checkout's library and nothing else, never
    an installed copy.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no library source under {source}")
    global ARTIFACTS
    ARTIFACTS = CACHE / f"warm-{library_digest(source / 'repro')[:16]}"
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(ARTIFACTS / "weights")
    os.environ["REPRO_KERNEL_DIR"] = str(CACHE / "kernels")
    # The C compiler's scratch files stay inside the checkout too.
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(CACHE / "tmp")
    sys.path.insert(0, str(source))


def library_digest(package: Path) -> str:
    """Hash of every Python file of ``package``, by relative path.

    The weights and collection the benchmark serves are built by the
    library itself, so a checkout that measures two states of the source
    keeps one set per state and never times one state's artifacts with
    the other's code.  (The native kernels need no such key: the library
    already names them by a hash of their source.)
    """
    hasher = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        hasher.update(str(path.relative_to(package)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def check_library_origin() -> None:
    """Fail unless ``repro`` was imported from this checkout's ``src``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise SourceMissing(f"repro imported from {origin}, not from {ROOT / 'src'}")


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _openblas_threads(package: str) -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with ``package``."""
    try:
        module = __import__(package)
    except ImportError:
        return {}
    libs = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
    found = {}
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[f"{package}/{Path(path).name}"] = int(getter())
                break
    return found


def _cpu() -> tuple[str, list[str]]:
    """CPU model name and feature flags of the first processor."""
    model, flags = platform.processor(), []
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = value.split()
                    break
    except OSError:
        pass
    return model, flags


def environment_stamp() -> dict:
    """What a reader needs to compare two result sets."""
    import numpy

    from repro.edge import _fastexec
    from repro.privacy import _fastknn

    model, flags = _cpu()
    wanted = ("avx2", "avx512f", "avx512bw", "avx512_vnni", "avx512vbmi", "avx_vnni")
    return {
        "cpu": model,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_flags": [flag for flag in wanted if flag in flags],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_executor": _fastexec.available(),
        "native_knn": _fastknn.available(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads": {**_openblas_threads("numpy"), **_openblas_threads("scipy")},
    }


# ----------------------------------------------------------------------
# Host speed and memory
# ----------------------------------------------------------------------
def host_probe(iterations: int = 200_000) -> float:
    """Seconds for a fixed pure-Python loop.

    Timed between rounds and reported beside the results, never folded
    into a metric: when two result sets disagree, a matching move in the
    probe says the host changed speed, not the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
@dataclass
class RoundLog:
    """Per-round records of one run, by name."""

    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])


def run_rounds(
    seconds: float,
    one_round: Callable[[int, bool], None],
    *,
    trace: bool,
    min_rounds: int,
) -> list[float]:
    """One untimed warm round (index -1), then rounds of fixed work until
    ``seconds`` have passed and at least ``min_rounds`` ran (in a traced
    run, that many of each kind); returns the host probe taken before
    each round.

    A traced run alternates untraced and traced rounds, so the tracing
    overhead is measured against rounds from the same stretch of time.
    """
    one_round(-1, False)
    probes: list[float] = []
    start = time.perf_counter()
    needed = 2 * min_rounds if trace else min_rounds
    index = 0
    while index < needed or time.perf_counter() - start < seconds:
        probes.append(host_probe())
        one_round(index, trace and index % 2 == 1)
        index += 1
    return probes


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    details: dict,
    workload: str,
    seed: int,
    trace: bool,
) -> None:
    """Print the details line, then the result line (always last)."""
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, **details}
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps({"details": record}, default=float))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
