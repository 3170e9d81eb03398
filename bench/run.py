"""The katailab benchmark: one command runs one workload and prints its metrics.

    python3 bench/run.py --workload tables|phases|sweep --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the katailab found in
that checkout's ``src`` directory and exits 2 when there is none.

The parent (this process) turns the seed into inputs and reference values,
then starts fresh child processes (bench/child.py) one after another until
``--seconds`` have passed (at least three children, two per traced half).  Each child sets up (imports
katailab, builds or writes the sieve) and runs one batch of checked
operations, using at most two threads.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it spends half the
time untraced and half traced, runs the fixed-size layer probes, prints the
per-layer metrics and writes the spans to .bench_out/.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "katailab"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_SAMPLES = 7
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_IDS = {"tables": 1, "phases": 2, "sweep": 3}


class ChildError(RuntimeError):
    pass


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
        self.inputs = inputs.MAKERS[workload](self.rng, workdir)
        self.started = _monotonic()
        self.count = 0

    def child(self, spec) -> dict:
        k = self.count
        self.count += 1
        spec_path = self.workdir / f"spec-{k}.json"
        result_path = self.workdir / f"result-{k}.json"
        log_path = self.workdir / f"log-{k}.txt"
        spec_path.write_text(json.dumps(dict(spec, workdir=str(self.workdir))))
        env = dict(os.environ, **CHILD_ENV)
        with open(log_path, "wb") as log:
            spawned = _monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
            try:
                proc.wait(timeout=max(1.0, DEADLINE_S - (_monotonic() - self.started)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ChildError(f"child {k} did not finish within {DEADLINE_S:.0f} s") from None
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise ChildError(f"child {k} exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        if "ready_at" in result:
            result["setup_s"] = result["ready_at"] - spawned
        return result

    def batches(self, seconds, trace, min_children) -> list:
        """Children one after another for about `seconds`: the next one starts
        while more than half a child's time is left, and at least min_children run."""
        results, lengths = [], []
        start = _monotonic()
        while (len(results) < min_children
               or _monotonic() - start + statistics.median(lengths) / 2 < seconds):
            inp = self.inputs
            if self.workload == "sweep":
                inp = dict(inp, requests=inputs.sweep_pass(self.rng))
            elif self.workload == "phases":
                inp = dict(inp, order_seed=int(self.rng.integers(2**32)))
            began = _monotonic()
            results.append(self.child({"workload": self.workload, "mode": "run",
                                       "trace": trace, "inputs": inp}))
            lengths.append(_monotonic() - began)
        return results

    def setups(self, results) -> list:
        """Set-up times of the run children plus set-up-only children, at
        least SETUP_SAMPLES in all."""
        times = [r["setup_s"] for r in results]
        while len(times) < SETUP_SAMPLES:
            times.append(self.child({"workload": self.workload, "mode": "setup",
                                     "trace": False, "inputs": self.inputs})["setup_s"])
        return times

    def probe(self) -> dict:
        return self.child({"mode": "probe", "limit": self.inputs["sieve_limit"],
                           "seed": self.seed})["layers"]


# -- metrics -------------------------------------------------------------------


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Where operations of different sizes form clusters it
    moves smoothly, where a single order statistic jumps between clusters."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def end_to_end(results, setups):
    lat = [x for r in results for x in r["latencies"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0,
        "exp_p50_s": quantile(lat, 0.5),
        "exp_p90_s": quantile(lat, 0.9),
    }
    k = len(results)
    beyond = sum(1 for x in lat if x > values["exp_p90_s"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, child start to sieve ready",
        "run_s": f"median of {k} batches, sieve ready to last output checked",
        "peak_rss_mb": f"median of {k} children's ru_maxrss",
        "exp_p50_s": f"Harrell-Davis median of {len(lat)} operation latencies",
        "exp_p90_s": f"Harrell-Davis 90th percentile of {len(lat)} operation latencies, "
                     f"{beyond} beyond it",
    }
    return values, notes


def per_layer(untraced, traced, probe):
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    layers["cli.import_s"] = statistics.median(r["cli_import_s"] for r in traced)
    codes = [r["exit_codes"] for r in traced]
    layers["cli.requests"] = statistics.median(sum(c.values()) for c in codes)
    layers["cli.exit_2"] = statistics.median(c.get("2", 0) for c in codes)
    layers["cli.exit_3"] = statistics.median(c.get("3", 0) for c in codes)
    layers.update(probe)
    layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in untraced))
    return layers


# -- provenance ----------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    mem = {}
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("MemTotal", "MemAvailable"):
                    mem[key] = value.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "MemTotal": mem.get("MemTotal"),
        "MemAvailable": mem.get("MemAvailable"), "python": platform.python_version(),
        "numpy": np.__version__, "mpmath": mpmath.__version__,
        "commit": _git_commit(), "source_sha256": digest.hexdigest(), "seed": seed,
    }


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no katailab sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, bench, workdir)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, bench, workdir) -> int:
    runner = Runner(args.workload, args.seed, workdir)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    if args.trace:
        untraced = runner.batches(args.seconds / 2, False, min_children=2)
        traced = runner.batches(args.seconds / 2, True, min_children=2)
        values = per_layer(untraced, traced, runner.probe())
        results = untraced + traced
        wanted = bench["per_layer"]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": provenance(args.seed), "per_layer": values,
            "children": [{"run_s": r["run_s"], "layers": r["layers"], "spans": r["spans"]}
                         for r in traced],
        }))
        for name in sorted(values):
            print(f"  {name:42s} {values[name]:.6g}")
        print(f"spans and per-layer values written to {trace_path.relative_to(ROOT)}")
    else:
        results = runner.batches(args.seconds, False, min_children=3)
        values, notes = end_to_end(results, runner.setups(results))
        wanted = bench["end_to_end"]
        for m in wanted:
            print(f"  {m['name']:12s} = {values[m['name']]:.6g} {m['unit']}  ({notes[m['name']]})")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"  ops_failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} "
          f"(base: operations attempted; expected rejections count as successes)")
    for r in results:
        for msg in r["failures"][:5]:
            print(f"  FAILED {msg}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
