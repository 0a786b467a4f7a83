"""One cold interpreter: import genus0, optionally trace, run one workload.

Usage: child.py SPEC_JSON, where the spec holds the checkout root, the
harness's CLOCK_MONOTONIC reading just before it spawned this process,
and either {"probe": true} or a workload name, size, seed and trace flag.
Prints one JSON line: set-up time, and for a workload its answer, wall
time, CPU time, peak RSS and, when traced, the raw span record.
"""

import json
import os
import resource
import sys
import time


def _blas() -> dict:
    """OpenBLAS version string and thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:  # Linux only
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": "not found", "blas_threads": None}


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import genus0
    import genus0.cli  # noqa: F401  (a CLI user pays for this import too)

    setup_s = time.monotonic() - spec["spawned"]
    if not os.path.abspath(genus0.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"genus0 imported from {genus0.__file__}, not {src}")

    out = {"setup_s": setup_s}
    if spec.get("probe"):
        out.update(
            python=sys.version.split()[0], numpy=numpy.__version__, **_blas()
        )
    else:
        import workloads  # next to this file, which is sys.path[1] by now

        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.install()
        t0 = time.perf_counter()
        answer = workloads.run(spec["workload"], spec["size"], spec["seed"])
        wall_s = time.perf_counter() - t0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        out.update(
            answer=answer,
            wall_s=wall_s,
            cpu_s=ru.ru_utime + ru.ru_stime,
            peak_rss_mb=ru.ru_maxrss / 1024,
        )
        if tracer is not None:
            out["spans"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
