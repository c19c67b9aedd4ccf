"""One child process of the benchmark.

    python3 perfbench/child.py RESULT_JSON [--probe | [--trace] -- CLI_ARGS...]

Imports `threatbench.cli` from the checkout's `src/`, then either stops there
(`--probe`, a set-up sample that also records the numeric environment) or
calls `cli.main(CLI_ARGS)`, optionally under the span tracer. Times are
`time.perf_counter()` readings, which on Linux share CLOCK_MONOTONIC with the
parent, so the parent can subtract its spawn time from `t_imported`.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import threatbench.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()


def _blas() -> dict:
    """BLAS library name, version and the thread count it runs with."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    threads = getter()
                    break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(argv) -> int:
    result_path, rest = argv[0], argv[1:]
    if rest == ["--probe"]:
        import numpy as np

        out = {"t_imported": T_IMPORTED, "numpy": np.__version__, "blas": _blas()}
        rc = 0
    else:
        tracer = None
        if rest[0] == "--trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            rest = rest[1:]
        cli_args = rest[1:]  # drop the "--" separator
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t_start = time.perf_counter()
        rc = cli.main(cli_args)
        t_end = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        out = {
            "t_imported": T_IMPORTED,
            "exit": rc,
            "run_s": t_end - t_start,
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        }
        if tracer is not None:
            out["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
