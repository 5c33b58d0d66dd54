"""Machine and software facts recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

import surecov

# thread-count getters exported by the OpenBLAS builds numpy ships or links
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _src_digest(root: Path) -> str:
    """sha256 over the package sources, to identify code outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "surecov").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> tuple[str | None, int | None]:
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = " ".join(str(info[k]) for k in ("name", "version") if info.get(k)) or None
    np.linalg.cholesky(np.eye(2))  # make sure the library is loaded
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return name, None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, pool_threads: int | None) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "seed": seed,
        "surecov_version": surecov.__version__,
        "git_revision": _git_revision(root),
        "src_sha256": _src_digest(root),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "pool_threads": pool_threads,
        # the simulation pool runs pool threads x BLAS threads on nproc cores
        "pool_x_blas_threads": (pool_threads * blas_threads) if pool_threads and blas_threads else None,
        "cpu_model": _cpu_model(),
        "ram_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }
