"""What the numbers were measured on: cores, BLAS and its thread pin, versions."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
from importlib.metadata import version

import numpy as np


def _openblas_call(name: str, restype):
    """Call NumPy's bundled OpenBLAS ``name`` (64-bit-int build or not); None if absent."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libopenblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for sym in (name + "64_", name):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, as the library reports it; -1 if unknown."""
    n = _openblas_call("openblas_get_num_threads", ctypes.c_int)
    return -1 if n is None else int(n)


def blas_config() -> str:
    cfg = _openblas_call("openblas_get_config", ctypes.c_char_p)
    return "unknown (NumPy does not bundle OpenBLAS)" if cfg is None else cfg.decode()


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (VmHWM) at the current RSS.

    Where /proc/self/clear_refs is missing or read-only the count keeps
    running from process start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since process start or the last ``reset_peak_rss``, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_config(),
        "blas_pin": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads_reported": blas_threads(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": version("pyspark"),
    }
