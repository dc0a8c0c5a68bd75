"""Run one `gdms` CLI op in a fresh interpreter, for the benchmark.

    python bench/op.py --sidecar FILE [--trace] -- <gdms arguments>
    python bench/op.py --env

The op runs exactly as ``gdms <arguments>`` would; its exit code is the
CLI's.  The sidecar JSON records the ``time.monotonic()`` instant at which
``load_config`` returned (the parent subtracts its spawn instant to get the
op's set-up time), the time ``import gdms.cli`` took, and with ``--trace``
the spans of every public gdms call.  ``--env`` prints the interpreter,
library and BLAS record instead of running an op.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _blas_record() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                record["threads"] = getter()
                record["library"] = os.path.basename(path)
                return record
    return record


def env_record() -> dict:
    import platform

    import numpy
    import scipy

    import gdms.cli

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "gdms_cli": os.path.abspath(gdms.cli.__file__),
    }


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        print(json.dumps(env_record()))
        return 0
    sep = argv.index("--")
    flags, gdms_args = argv[:sep], argv[sep + 1:]
    sidecar = flags[flags.index("--sidecar") + 1]
    traced = "--trace" in flags

    t0 = time.perf_counter()
    import gdms.cli as cli

    import_s = time.perf_counter() - t0
    recorder = None
    if traced:
        from tracer import Recorder, install  # bench/ is sys.path[0]

        recorder = Recorder()
        install(recorder)

    loaded_at: list[float] = []
    load_config = cli.load_config

    def stamped_load_config(path):
        cfg = load_config(path)
        loaded_at.append(time.monotonic())
        return cfg

    cli.load_config = stamped_load_config
    try:
        return cli.main(gdms_args)
    finally:
        with open(sidecar, "w") as fh:
            json.dump({
                "spans": recorder.spans if recorder else [],
                "import_s": import_s,
                "loaded_at": loaded_at[0] if loaded_at else None,
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
