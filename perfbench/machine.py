"""Machine facts recorded beside every result, so noisy runs can be recognised."""

from __future__ import annotations

import ctypes
import os
import platform


def load_and_steal() -> dict:
    """1-minute load average and cumulative CPU steal ticks, read from /proc."""
    out = {"loadavg_1m": None, "steal_ticks": None}
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            out["loadavg_1m"] = float(fh.read().split()[0])
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()   # cpu user nice system idle iowait irq softirq steal
        out["steal_ticks"] = int(fields[8]) if len(fields) > 8 else 0
    except (OSError, ValueError, IndexError):
        pass
    return out


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe() -> dict:
    """Static facts about this process's interpreter, numpy and BLAS."""
    import numpy as np

    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS",
                                                       "OPENBLAS_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
    }
