"""The machine block printed with every run.

BLAS threading is only *read* here (through the loaded OpenBLAS library's
own getters); the benchmark never sets ``OPENBLAS_NUM_THREADS`` or any
similar variable, so the program runs with its default thread budget.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REPRO_TELEMETRY")


def _openblas() -> Dict[str, Any]:
    import numpy as np

    info: Dict[str, Any] = {}
    config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    info["vendor"] = config.get("name", "unknown")
    info["version"] = config.get("version", "unknown")
    paths = sorted(
        {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines() if "openblas" in line.lower()}
    )
    for path in paths:
        library = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""), ("scipy_openblas", "")):
            getter = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            describe = getattr(library, f"{prefix}_get_config{suffix}", None)
            if getter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            info["threads"] = getter()
            if describe is not None:
                describe.argtypes, describe.restype = [], ctypes.c_char_p
                info["config"] = describe().decode()
            return info
    info["threads"] = None
    return info


def _git_commit(root: Path) -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` (path and content), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def block(root: Path) -> Dict[str, Any]:
    import numpy as np

    from repro import __version__
    from repro.obs.trace import telemetry_enabled

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": _openblas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": __version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "telemetry": telemetry_enabled(),
        "platform": platform.platform(),
    }
