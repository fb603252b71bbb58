"""One cold benchmark process: import qscissor, run one CLI experiment, report.

run.py starts this file as a fresh interpreter for every measured run, so
each run pays the import and the package's cold caches, as a CLI user does:

    python3 child.py [--probe] [--spans PATH --run-id ID] REPORT -- CLI_ARGS...

``REPORT`` receives a JSON object.  ``imported_at`` is ``time.monotonic()``
when ``import qscissor.cli`` returned; the parent took the same clock just
before spawning, so the difference is the set-up time.  ``--probe`` stops
there and adds the interpreter, numpy and BLAS versions.  Otherwise the
report holds the wall and CPU seconds of ``cli.main(CLI_ARGS)``, its exit
code and the process's peak RSS.  ``--spans`` traces the run with
``tracer.Tracer`` and writes the spans to ``PATH``.

A ``refkernel.Sampler`` times a reference kernel all through the import
(``setup``) and all through ``cli.main`` (``run``); each reports the host
speed it saw and the kernel's own seconds, which run.py uses to scale the
measured times to nominal host speed.
"""

import time

from refkernel import (
    IMPORT_INTERVAL_S, NUMPY_NOMINAL_S, PYTHON_NOMINAL_S, RUN_INTERVAL_S, Sampler,
    numpy_kernel, python_kernel,
)


def main() -> int:
    setup = Sampler(python_kernel, PYTHON_NOMINAL_S, IMPORT_INTERVAL_S)
    setup.start()
    from qscissor import cli

    imported_at = time.monotonic()
    setup.stop()

    import argparse
    import json
    import platform
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    report = {"imported_at": imported_at, "qscissor_file": cli.__file__, "setup": setup.report()}
    if args.probe:
        import numpy as np

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):
            blas = "unknown"
        report.update(python=platform.python_version(), numpy=np.__version__, blas=blas)
    else:
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        sampler = Sampler(numpy_kernel, NUMPY_NOMINAL_S, RUN_INTERVAL_S)
        before = resource.getrusage(resource.RUSAGE_SELF)
        sampler.start()
        start = time.perf_counter()
        try:
            exit_code = cli.main(args.cli_args)
        finally:
            run_s = time.perf_counter() - start
            sampler.stop()
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.dump(args.spans, args.run_id)
        report.update(
            exit_code=exit_code,
            run_s=run_s,
            cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            run=sampler.report(),
        )
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
