"""Sample statistics and the environment block printed with every result."""
from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# Seconds per unit of the narrow reference when a time in those units is
# given in seconds: a round figure near reference_s("narrow") on the
# unloaded 2-core Xeon VM the baseline was recorded on.
NARROW_REF_SECONDS = 0.004
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail_percentile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    ok = [q for q in PERCENTILE_LADDER if n_samples * (100.0 - q) >= 1000.0 - 1e-6]
    return ok[-1] if ok else None


def reference_s(kind: str) -> float:
    """Time a fixed loop of the kind of work a workload does.

    "narrow": small-array numpy calls in a Python loop, as in the walk at
    small m, the analysis calls and set-up; about 4 ms on an unloaded
    2-core Xeon. "wide": that, plain interpreter work and (100, 512) array
    passes, as in wide_sparse's kernel rows and file writes; about 20 ms.
    On that host, whose speed drifts by up to 2x, the narrow loop followed
    the narrow workloads' speed best (pass-time medians spread 2-5 % over
    six seeds, against 6-10 % with the wide loop and 18-31 % raw), and the
    wide loop followed wide_sparse's (7 %, against 13 % with the narrow).
    """
    import numpy as np
    t0 = time.perf_counter()
    a = np.linspace(0.5, 1.5, 64)
    acc = 0.0
    for _ in range(2000):
        b = a * 1.0001
        acc += float(b.sum())
        a = b[::-1].copy()
    if kind == "wide":
        for i in range(100_000):
            acc += i * 0.5
        w = np.linspace(0.5, 1.5, 100 * 512).reshape(100, 512)
        for _ in range(15):
            c = np.exp(w * 0.999).cumsum(axis=1)
            w = c / c[:, -1:] + 0.5
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """The process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "workload_seed": seed,
        "byte_counts": "computed from array and file sizes, not measured I/O",
    }
