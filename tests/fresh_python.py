"""Run a snippet in a fresh interpreter that imports ``vgsynth`` from this
checkout, for tests of what a process sees at start-up: its imports and
its BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vgsynth


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 CPUs for a 2-thread BLAS")


def run_python(code: str, timeout: float, **env: str) -> str:
    """Standard output of ``python -c code``, stripped, with ``env`` added
    to the environment."""
    src = str(Path(vgsynth.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=timeout)
    return done.stdout.strip()


def outputs_per_blas_thread_count(code: str, timeout: float) -> list[str]:
    """``run_python(code)`` with one BLAS thread, then with two."""
    return [run_python(code, timeout, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            for threads in ("1", "2")]
