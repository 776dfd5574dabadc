"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``chain``: ``decide_separability`` (verdict and witness, no separator) on
  family pairs and seeded circuit-value reductions.
- ``separate``: the ``analyze --json`` verb, with separator and PT audit, on
  small family pairs and seeded random NFA pairs.
- ``prefix``: the ``prefix-analyze --json`` verb on family pairs and seeded
  graph-reachability reductions, plus ``pt-check --json`` on universality
  reductions.

A run imports ``ptsep`` from ``src/``, generates the inputs and writes them
as JSON files, then makes one untimed warm-up pass whose outcomes are checked
against known answers, then timed passes over the whole instance list for
about ``--seconds`` seconds; every timed outcome must equal the checked one.
The set-up (a fresh import, generate, serialize the inputs) is made
``SETUP_REPEATS + 1`` times back to back before the passes; ``setup_s`` is
the median of all but the first, cold one.  The passes use the last import
and the files it wrote, which are deleted at the end.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced passes with passes in which every layer
function named by a per-layer metric is wrapped, and reports the per-layer
metrics.  The last line of standard output is one JSON object; per-instance
rows, the spans and run details are written under ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from spans import Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _is_ptsep(name: str) -> bool:
    return name == "ptsep" or name.startswith("ptsep.")


SETUP_REPEATS = 10


class Run:
    """One workload run: set-up, passes and their timings."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload, self.seed = workload, seed
        self.inputs_dir = os.path.join(work_dir, "inputs")
        shutil.rmtree(self.inputs_dir, ignore_errors=True)
        self.setup_times = []
        self.ptsep = self.instances = self.texts = None

    def setup(self):
        """Import ptsep afresh, generate the instances and serialize their
        inputs, ``SETUP_REPEATS + 1`` times.  The first, cold import also
        loads standard-library modules and may compile ``src/``, so it is
        not timed.  The last import is kept and its inputs are written,
        outside the timed span: on a shared disk, creating the files took
        0.2 to 0.55 s from one repeat to the next."""
        for repeat in range(SETUP_REPEATS + 1):
            for name in [n for n in sys.modules if _is_ptsep(n)]:
                del sys.modules[name]
            gc.collect()
            start = time.perf_counter()
            ptsep = importlib.import_module("ptsep")
            importlib.import_module("ptsep.cli")
            instances, texts = workloads.generate(ptsep, self.workload, self.seed,
                                                  self.inputs_dir)
            if repeat:
                self.setup_times.append(time.perf_counter() - start)
        self.ptsep, self.instances, self.texts = ptsep, instances, texts
        os.makedirs(self.inputs_dir)
        for path, text in texts.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        gc.collect()

    def run_pass(self, recorder=None, keep_separator=False):
        """Run every instance: (outcomes, seconds)."""
        outcomes, seconds = [], []
        clock = time.perf_counter
        if recorder is not None:
            recorder.install()
        try:
            for i, inst in enumerate(self.instances):
                if recorder is not None:
                    recorder.instance = i
                start = clock()
                try:
                    outcome = workloads.run(self.ptsep, inst, keep_separator)
                except Exception as exc:  # a failed instance, not a failed run
                    outcome = {"error": f"{type(exc).__name__}: {exc}"}
                seconds.append(clock() - start)
                outcomes.append(outcome)
        finally:
            if recorder is not None:
                recorder.uninstall()
        return outcomes, seconds


def timed_passes(run: Run, budget_s: float, recorder=None):
    """Whole passes for about ``budget_s`` seconds: a new pass starts while
    half a typical pass still fits.  With a recorder, untraced and traced
    passes alternate, starting untraced.  Returns (untraced passes, traced
    passes, span ranges of the traced passes)."""
    plain, traced, ranges = [], [], []
    start = time.perf_counter()
    while True:
        if recorder is None or len(traced) == len(plain):
            plain.append(run.run_pass())
        else:
            first = recorder.span_count()
            traced.append(run.run_pass(recorder))
            ranges.append((first, recorder.span_count()))
        done = plain + traced
        typical = statistics.median(sum(seconds) for _, seconds in done)
        enough = recorder is None or len(traced) == len(plain)
        if enough and time.perf_counter() - start + typical / 2 > budget_s:
            return plain, traced, ranges


def check(ptsep, inst, outcome):
    """workloads.check, with an outcome it cannot read counted as wrong."""
    try:
        return workloads.check(ptsep, inst, outcome)
    except Exception as exc:  # e.g. a report without an expected field
        return f"check failed: {type(exc).__name__}: {exc}"


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def quantile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def layer_names(spec) -> list:
    """Span names (module.function) behind the per-layer metrics."""
    names = []
    for metric in spec["per_layer"]:
        name = metric["name"].rsplit(".", 1)[0]
        if name != "trace" and name not in names:
            names.append(name)
    return names


def layer_metrics(recorder, ranges, traced, untraced_wall_s) -> dict:
    """calls and states_out of the first traced pass (they repeat exactly),
    self_s as the median over traced passes."""
    per_pass = [recorder.stats(first, last) for first, last in ranges]
    out = {}
    for name, stat in per_pass[0].items():
        out[f"{name}.calls"] = stat["calls"]
        out[f"{name}.states_out"] = stat["states_out"]
        out[f"{name}.self_s"] = statistics.median(p[name]["self_s"] for p in per_pass)
    traced_wall = statistics.median(sum(seconds) for _, seconds in traced)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if not os.path.isfile(os.path.join(SRC, "ptsep", "__init__.py")):
        print(f"error: no ptsep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}")
    run = Run(args.workload, args.seed, work)
    run.setup()
    if not os.path.abspath(run.ptsep.__file__).startswith(SRC + os.sep):
        print(f"error: ptsep imported from {run.ptsep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ptsep, instances = run.ptsep, run.instances

    warm_start = time.perf_counter()
    checked, _ = run.run_pass(keep_separator=True)
    warm_s = time.perf_counter() - warm_start
    recorder = Recorder(layer_names(spec)) if args.trace else None
    base, traced, ranges = timed_passes(run, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = [check(ptsep, inst, outcome) for inst, outcome in zip(instances, checked)]
    failures = []
    for label, passes in (("timed", base), ("traced", traced)):
        for p, (outcomes, _) in enumerate(passes):
            for i, outcome in enumerate(outcomes):
                reason = reasons[i] or (
                    None if outcome == checked[i] else "outcome differs from the checked pass")
                if reason:
                    failures.append(f"{label} pass {p}, {instances[i].kind}"
                                    f"({instances[i].param}): {reason}")
    attempted = len(instances) * (len(base) + len(traced))

    samples_ms = [1000.0 * s for _, seconds in base for s in seconds]
    end_to_end = {
        "wall_s": statistics.median(sum(seconds) for _, seconds in base),
        "p50_ms": quantile(samples_ms, 0.50),
        "p90_ms": quantile(samples_ms, 0.90),
        "ok_ratio": 1.0 - len(failures) / attempted,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        wanted = spec["per_layer"]
        values = layer_metrics(recorder, ranges, traced, end_to_end["wall_s"])
    else:
        wanted, values = spec["end_to_end"], end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    instance_ms = [statistics.median(1000.0 * seconds[i] for _, seconds in base)
                   for i in range(len(instances))]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "instances": len(instances), "warmup_s": warm_s,
        "timed_passes": len(base), "traced_passes": len(traced),
        "setup_times_s": run.setup_times, "samples": len(samples_ms),
        "failed_ratio": len(failures) / attempted,
        "instances_sha256": digest([[inst.kind, inst.param, [run.texts[f] for f in inst.files]]
                                    for inst in instances]),
        "verdicts_sha256": digest(checked),
        "end_to_end": end_to_end, "metrics": metrics, "failures": failures,
        "rows": [dict(workloads.row(inst, outcome), ms=ms)
                 for inst, outcome, ms in zip(instances, checked, instance_ms)],
    }
    if recorder is not None:
        details["layer_counts"] = {
            name: {"calls": stat["calls"], "states_out": stat["states_out"]}
            for name, stat in recorder.stats(*ranges[0]).items()}
        details["spans_file"] = os.path.join(work, "spans.csv")
        recorder.write(details["spans_file"])
    shutil.rmtree(run.inputs_dir)
    result_file = os.path.join(work, f"result-trace{args.trace}.json")
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)

    for reason in failures:
        print(f"failed: {reason}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  python {details['python']}  "
          f"nproc {details['nproc']}  trace {args.trace}")
    print(f"instances {len(instances)}  timed passes {len(base)}  traced passes "
          f"{len(traced)}  samples {len(samples_ms)}  failed_ratio {details['failed_ratio']}")
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"details in {os.path.relpath(result_file, ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
