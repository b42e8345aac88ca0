"""Process set-up shared by the benchmark run and its set-up probes."""

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CAP_VARS = ("ROTORSIM_DIM_CAP", "ROTORSIM_MAX_ITER")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_process():
    """Clear the resource caps and run BLAS on one thread.

    One thread because on a small shared machine a multi-threaded BLAS call
    runs at the pace of the slowest core it waits for, and the small dense
    solves of most workloads gain nothing from a second thread. Must run
    before numpy is imported: BLAS reads its thread count once.
    """
    for name in CAP_VARS:
        os.environ.pop(name, None)
    for name in THREAD_VARS:
        os.environ[name] = "1"


def import_cli():
    """Import numpy, scipy and rotorsim.cli from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "rotorsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no rotorsim package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    from rotorsim import cli
    return cli


def run_cli(cli, argv) -> tuple:
    """(exit code, stdout) of one in-process `rotorsim` invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects argv by exiting
            code = exc.code
    return code, buf.getvalue()


_PACE_WORK = []  # (matrix, eigh) fixed at the first call, before any tracer wraps eigh


def pace() -> float:
    """Seconds a fixed unit of work takes now: the machine's current speed.

    The unit builds and JSON-encodes a list of small dicts, then runs small
    dense eigh calls, the two kinds of work the workloads spend their time
    in; it takes about 10 ms. On a shared host the speed of a core drifts by
    up to 1.5x within seconds and over minutes as other tenants load it. In
    runs on such a host this unit slowed in the same proportion as each
    workload, which a plain arithmetic loop does not, so run.py can divide
    the drift out by timing it next to the program.
    """
    if not _PACE_WORK:
        import numpy as np
        a = np.random.default_rng(0).standard_normal((96, 96))
        _PACE_WORK.append((a + a.T, np.linalg.eigh))
    matrix, eigh = _PACE_WORK[0]
    start = time.perf_counter()
    json.dumps([{"a": i, "b": i * 0.5, "c": str(i)} for i in range(1500)])
    for _ in range(6):
        eigh(matrix)
    return time.perf_counter() - start


def warm_up(cli, ops, outdir):
    for op in ops:
        code, _ = run_cli(cli, op.argv + ("--out", str(outdir / op.label)))
        if code != 0:
            raise SystemExit(f"error: warm-up {op.label} exited with {code}")


def _blas_threads():
    """Thread count OpenBLAS reports, or None if no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def src_lines() -> int:
    """Non-blank, non-comment lines of the package source."""
    count = 0
    for path in sorted((ROOT / "src" / "rotorsim").rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "caps_env_unset": not any(name in os.environ for name in CAP_VARS),
        "src_lines": src_lines(),
    }
