"""One timed feberi process: set-up alone, or set-up plus one scenario execution.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's ``src``.  It drives feberi through its public entry points only:
``feberi.cli.load_config``, ``feberi.scenarios.run_scenario`` and
``feberi.cli.write_result``, and writes a JSON report:

  import_s, load_config_s   CPU time of set-up: ``import feberi.cli`` and
                            parsing the INI
  run_s                     CPU time from run_scenario start to write_result end
  run_wall_s                wall time of the same interval
  setup_span, run_span      ``time.monotonic()`` start and end of the two
                            intervals, to match them with sampler.py's samples
  peak_rss_mb               ru_maxrss of this process, MiB
  layers                    per-layer metrics (``--mode trace`` only)

usage: worker.py --mode {setup,run,trace} --config X.ini --out DIR --report R.json
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def cpu_time() -> float:
    """CPU seconds of this process, all its threads, and the child processes
    it has waited for.  Unlike wall time, this leaves out the time the host
    gives the VM's CPU to someone else (steal) and the time other processes
    hold it, so it does not move with the load of a shared host."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans", default=None, help="span file (trace mode)")
    args = ap.parse_args()

    m0, c0 = time.monotonic(), cpu_time()
    import feberi.cli as cli
    import_s = cpu_time() - c0
    from feberi import scenarios

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer(run_id=Path(args.report).name.split(".")[0])
        tracer.install()

    c1 = cpu_time()
    cfg = cli.load_config(args.config)
    report = {"import_s": import_s, "load_config_s": cpu_time() - c1,
              "setup_span": [m0, time.monotonic()], "feberi_file": cli.__file__}

    if args.mode != "setup":
        m2, c2 = time.monotonic(), cpu_time()
        result = scenarios.run_scenario(cfg, jobs=1)
        cli.write_result(result, Path(args.out))
        report["run_s"] = cpu_time() - c2
        m3 = time.monotonic()
        report["run_wall_s"] = m3 - m2
        report["run_span"] = [m2, m3]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["layers"]["setup.import_s"] = import_s
        tracer.write(args.spans)
    report["environment"] = _environment()
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")


def _environment() -> dict:
    """Library versions and BLAS build as the feberi process sees them."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "openblas_config": blas.get("openblas configuration")}


if __name__ == "__main__":
    main()
