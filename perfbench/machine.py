"""Machine record: CPUs, caches, Python, numpy and the BLAS it runs on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
OPENBLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads")


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _blas() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown", "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in OPENBLAS_THREAD_QUERIES:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record(requested_threads: int) -> dict:
    name, version = _blas()
    threads = _blas_threads()
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{name}-{version}",
        "blas_threads": threads if threads is not None else f"{requested_threads} (requested)",
    }
