"""The run record written beside every result: machine, toolchain, BLAS
threading and the commit measured."""

import os
import platform
import subprocess
from importlib import metadata

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads(env=os.environ):
    """One BLAS/OpenMP thread: BLAS work runs on the client's own core, and
    no idle worker threads spin beside the next request or the calibration
    kernel.  Must run before numpy is imported."""
    for var in THREAD_VARS:
        env[var] = "1"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _blas_name():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root):
    """HEAD of the git checkout at ``root``, or 'unknown'.  Git does not look
    above ``root`` for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(root):
    import numpy as np
    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": _blas_name(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "SUPERSTFT_QUAD_NODES": os.environ.get("SUPERSTFT_QUAD_NODES"),
        "git_commit": _git_commit(root),
    }
