"""One fresh process of a workload: set-up, then one checked batch.

Usage (bench/run.py starts it): child.py SPEC.json RESULT.json

SPEC holds the workload name, the mode (``run``, ``setup`` or ``probe``),
whether to trace, and the generated inputs.  The child imports katailab from the
``src`` directory of the checkout it belongs to and from nowhere else.
RESULT gets the time the sieve was ready (CLOCK_MONOTONIC, which the parent
shares), the batch time, the operations and, when traced, the spans and
per-layer values.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import katailab.cli  # noqa: F401  (imports every katailab module)
    import_s = time.perf_counter() - start
    if Path(katailab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"katailab was imported from {katailab.__file__}, not {SRC}")

    result = {"cli_import_s": import_s}
    if spec["mode"] == "probe":
        import probes

        result["layers"] = probes.run(spec["limit"], spec["seed"])
    else:
        from workloads import Recorder, WORKLOADS

        setup, batch = WORKLOADS[spec["workload"]]
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        inputs = spec["inputs"]
        state = setup(inputs, workdir)
        result["ready_at"] = _monotonic()
        ready = time.perf_counter()
        if spec["mode"] == "setup":
            return _finish(result, result_path)
        rec = Recorder()
        batch(inputs, state, rec, workdir)
        result["run_s"] = time.perf_counter() - ready
        result.update(rec.as_dict())
        if tracer is not None:
            from tracing import layer_metrics

            result["layers"] = layer_metrics(tracer, ready)
            result["spans"] = tracer.spans
    _finish(result, result_path)


def _finish(result, result_path):
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
