"""hopfloop benchmark: seeded workloads, oracle-checked verdicts, and a traced
per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, dequation, loopsearch, files (see perfbench/README.md).
The run imports hopfloop from src/ of the checkout, builds the workload's
deck of instances from the seed, and times whole deck passes, at least
MIN_PASSES and until --seconds have elapsed.  Times are taken next to a
host speed meter and reported at its reference speed (see speed.py); an
instance's latency is the median of its runs.  Every verdict is graded
against an oracle that does not use hopfloop.  The last line of stdout is
one JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (one untraced pass, then
two traced passes that must repeat their counts exactly).  The line before
it carries the provenance (Python, search backend, nproc, seed, commit).
"""

import argparse
import copy
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3      # set-ups before the first pass, and after every pass
MIN_PASSES = 3      # deck passes per untraced run, at the least
MAX_SECONDS = 120   # stop starting passes after this, whatever --seconds says
REPEAT_SECONDS = 0.1  # a pass re-runs an instance until it has taken this
MAX_REPEATS = 10      # ... or has run this many times
TRACED_PASSES = 2
WORKLOADS = ("sweep", "dequation", "loopsearch", "files")

sys.path.insert(0, HERE)
import speed  # noqa: E402
from common import grade, law_entries, report_docs  # noqa: E402
from tracing import (  # noqa: E402
    Counter, Tracer, counting_fields, span_times, tensor_cells)


class Ctx:
    """What a workload sees: the hopfloop module, the seed, the fields to
    build inputs over, and a scratch directory inside the checkout."""

    def __init__(self, hl, seed, Q, GF, workdir):
        self.hl, self.seed, self.Q, self.GF, self.workdir = (
            hl, seed, Q, GF, workdir)
        self.memo = {}  # oracle results a workload may reuse within the run
        self.files = {}  # path -> text of input files a workload generated

    def write_files(self):
        """Write the generated input files.  Set-up time stops before this:
        on a shared host the disk's speed varies far more than the CPU's,
        and the speed meter cannot correct for it."""
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def load_hopfloop():
    """Import hopfloop afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "hopfloop" or n.startswith("hopfloop.")]:
        del sys.modules[name]
    hl = importlib.import_module("hopfloop")
    for sub in ("cli", "fileio", "errors", "structures"):
        importlib.import_module("hopfloop." + sub)
    return hl


METER = speed.Meter()


def set_up(wl, seed, workdir):
    """(seconds at the meter's reference speed, ctx, deck)"""
    gc.collect()
    METER.bracket()
    inside = METER.mark()
    t0 = time.perf_counter()
    hl = load_hopfloop()
    ctx = Ctx(hl, seed, hl.QQ, hl.GF, workdir)
    deck = wl.setup(ctx)
    t1 = time.perf_counter()
    secs = t1 - t0 - METER.probe_seconds(inside, t1)
    METER.bracket()
    ctx.write_files()
    return secs * METER.scale(t0, t1), ctx, deck


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(hl, args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "search_backend": getattr(hl, "SEARCH_BACKEND", "python"),
            "nproc": nproc, "seed": args.seed, "commit": git_commit(),
            "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds}


class Grader:
    """Grades outcomes, caching each instance's oracle expectation, and keeps
    clean samples for the oracle self-check."""

    def __init__(self, wl):
        self.wl, self.expected, self.clean = wl, {}, []
        self.attempted, self.errors = 0, []

    def __call__(self, idx, inst, ctx, raw):
        if idx not in self.expected:
            self.expected[idx] = self.wl.expected(inst)
        if isinstance(raw, Exception):
            out = {"raised": f"{type(raw).__name__}: {raw}"}
        else:
            out = self.wl.outcome(ctx, inst, raw)
        errs = grade(self.expected[idx], out)
        self.attempted += 1
        if errs:
            self.errors.append(f"{inst.label}: {'; '.join(errs)}")
        elif len(self.clean) < 4 * len(self.expected):
            self.clean.append((self.expected[idx], dict(out, built=[])))
        return out

    def self_check(self):
        """A flipped expectation and a stripped witness must both be caught."""
        flipped = stripped = False
        for exp, out in self.clean:
            claims = [k for k, v in exp.items() if v is not None]
            if not flipped and claims:
                bad = dict(exp)
                v = bad[claims[0]]
                bad[claims[0]] = (not v) if isinstance(v, bool) else (v, 1)
                flipped = bool(grade(bad, out))
            if not stripped:
                docs = copy.deepcopy(report_docs(out))
                law = next((law for law in law_entries(docs)
                            if law["pass"] is False and law.get("witness")),
                           None)
                if law is not None:
                    del law["witness"]
                    stripped = bool(grade(exp, dict(out, reports=docs)))
        return flipped and stripped


def run_pass(wl, ctx, deck, grader, latencies, repeat=True, kinds=None):
    """Time every instance of the deck; latencies[i] collects the seconds of
    each run of instance i, at the meter's reference speed.  With repeat, an
    instance that finishes quickly runs again, until REPEAT_SECONDS or
    MAX_REPEATS, so that cheap instances get enough samples.  The runs of an
    instance are bracketed by meter probes, and the probes a run takes
    inside are subtracted from it."""
    for idx, inst in enumerate(deck):
        gc.collect()
        METER.bracket()
        spent, runs = 0.0, []
        while not runs or (repeat and spent < REPEAT_SECONDS
                           and len(runs) < MAX_REPEATS):
            inside = METER.mark()
            t0 = time.perf_counter()
            try:
                raw = wl.run_plain(ctx, inst)
            except Exception as exc:  # graded as a failed instance
                raw = exc
            t1 = time.perf_counter()
            dt = t1 - t0 - METER.probe_seconds(inside, t1)
            runs.append((dt, t0, t1))
            spent += dt
            if kinds is not None:
                kinds[inst.kind] = kinds.get(inst.kind, 0.0) + dt
            grader(idx, inst, ctx, raw)
        METER.bracket()
        latencies[idx].extend(dt * METER.scale(t0, t1)
                              for dt, t0, t1 in runs)


def tail_rank(deck_size):
    """The percentile with five instances, so at least ten timed samples,
    beyond it.

    Fixed by the deck, not by the run length, so runs that finish more
    passes still report the same quantile of the same instance mix.
    """
    return (deck_size - 5) / deck_size


def quantile(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def measure(wl, ctx, deck, seconds, grader, between):
    """Deck passes until --seconds have elapsed, at least MIN_PASSES.

    An instance's latency is the median of its runs at the probe's
    reference speed.  Every instance weighs the same in the statistics.
    """
    latencies = [[] for _ in deck]
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or (
            time.perf_counter() - start < min(seconds, MAX_SECONDS)):
        run_pass(wl, ctx, deck, grader, latencies)
        passes += 1
        between()
    per_inst = sorted(statistics.median(v) for v in latencies)
    p = tail_rank(len(deck))
    tail = quantile(per_inst, p)
    info = {"passes": passes, "samples": sum(map(len, latencies)),
            "probe_ms_median": METER.median_ms(),
            "tail_percentile": round(100 * p, 1),
            "samples_beyond_tail": sum(len(v) for v in latencies
                                       if statistics.median(v) > tail)}
    metrics = {
        "verdicts_per_s": len(per_inst) / sum(per_inst),
        "latency_p50_ms": 1000 * statistics.median(per_inst),
        "latency_tail_ms": 1000 * tail,
    }
    return metrics, info


def ms_name(span_name):
    """layer.what[.detail] -> layer.what_ms[.detail]"""
    parts = span_name.split(".")
    parts[1] += "_ms"
    return ".".join(parts)


def traced(wl, ctx, deck, args, workdir, grader, names):
    """One untraced pass, then TRACED_PASSES passes with spans and counting
    fields.  Counts must repeat exactly from pass to pass."""
    plain, kinds = [[] for _ in deck], {}
    run_pass(wl, ctx, deck, grader, plain, repeat=False, kinds=kinds)

    counter = Counter()
    Qc, GFc = counting_fields(ctx.hl, counter)
    tctx = Ctx(ctx.hl, args.seed, Qc, GFc, workdir)
    tdeck = wl.setup(tctx)
    tctx.write_files()
    tr = Tracer()
    passes = []
    for p in range(1, TRACED_PASSES + 1):
        gc.collect()
        before = counter.snapshot()
        wall, cells, nnz, witnesses, counts = 0.0, 0, 0, 0, {}
        for idx, inst in enumerate(tdeck):
            tr.instance = (p, idx)
            t0 = time.perf_counter()
            with tr.span(inst.kind):
                try:
                    raw = wl.run_traced(tctx, inst, tr)
                except Exception as exc:  # graded as a failed instance
                    raw = exc
            wall += time.perf_counter() - t0
            out = grader(idx, inst, tctx, raw)
            for obj in out.get("built", []):
                c, z = tensor_cells(ctx.hl, obj)
                cells, nnz = cells + c, nnz + z
            witnesses += sum(1 for law in law_entries(report_docs(out))
                             if law["pass"] is False and law.get("witness"))
            for k, v in out.get("counts", {}).items():
                counts[k] = counts.get(k, 0) + v
        add, mul, nonint = (a - b for a, b in zip(counter.snapshot(), before))
        passes.append({
            "fields.add_calls": add, "fields.mul_calls": mul,
            "fields.nonintegral_share": nonint / (add + mul) if add + mul
            else 0.0,
            "tensors.dense_cells": cells, "tensors.nnz": nnz,
            "tensors.density": nnz / cells if cells else 0.0,
            "report.witnesses": witnesses, **counts, "_wall": wall})

    first = passes[0]
    for later in passes[1:]:
        for key, value in first.items():
            if not key.startswith("_") and later[key] != value:
                grader.errors.append(
                    f"count {key} differs between traced passes: "
                    f"{value} vs {later[key]}")
    metrics = {n: 0 for n in names}
    metrics.update({k: v for k, v in first.items() if k in metrics})
    for kind, secs in kinds.items():
        if "." in kind and ms_name(kind) in metrics:
            metrics[ms_name(kind)] = 1000 * secs
    per_pass = [span_times(tr.spans, {(p, i) for i in range(len(tdeck))})
                for p in range(1, TRACED_PASSES + 1)]
    for name in {n for inc, _, _ in per_pass for n in inc}:
        if ms_name(name) in metrics:
            metrics[ms_name(name)] = 1000 * statistics.mean(
                inc.get(name, 0.0) for inc, _, _ in per_pass)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.mean(p["_wall"] for p in passes) / sum(kinds.values()) - 1)
    metrics["trace.coverage"] = statistics.mean(c for _, _, c in per_pass)
    self_ms = {}
    for _, selft, _ in per_pass:
        for name, secs in selft.items():
            self_ms[name] = (self_ms.get(name, 0.0)
                             + 1000 * secs / len(per_pass))
    return metrics, tr.spans, self_ms


def write_trace(args, prov, metrics, spans, self_ms):
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    t0 = min((s[1] for s in spans), default=0.0)
    doc = {"provenance": prov, "metrics": metrics,
           "self_ms": dict(sorted(self_ms.items())),
           "spans": [[n, round(a - t0, 6), round(b - t0, 6), parent,
                      list(inst)] for n, a, b, parent, inst in spans]}
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot read BENCHMARK.json: {exc}\n")
        return 2
    if not os.path.isfile(os.path.join(SRC, "hopfloop", "__init__.py")):
        sys.stderr.write(f"error: no hopfloop sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    wl = importlib.import_module("wl_" + args.workload)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setups = []

        def more_setups():
            for _ in range(SETUP_REPS):
                secs, new_ctx, new_deck = set_up(wl, args.seed, workdir)
                setups.append(secs)
            return new_ctx, new_deck

        METER.warm_up()
        if not args.trace:
            METER.start()
        ctx, deck = more_setups()
        hl = ctx.hl
        if not os.path.abspath(hl.__file__).startswith(SRC + os.sep):
            sys.stderr.write(f"error: hopfloop imported from {hl.__file__}\n")
            return 2
        prov = provenance(hl, args)
        grader = Grader(wl)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, spans, self_ms = traced(wl, ctx, deck, args, workdir,
                                             grader, names)
            info = {"trace_file": os.path.relpath(
                write_trace(args, prov, metrics, spans, self_ms), ROOT)}
        else:
            metrics, info = measure(wl, ctx, deck, args.seconds, grader,
                                    more_setups)
            metrics["setup_s"] = statistics.median(setups)
            metrics["ok_rate"] = 1 - len(grader.errors) / grader.attempted
            metrics["peak_rss_mib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        METER.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    checked = grader.self_check()
    if not checked:
        grader.errors.append("oracle self-check failed: a flipped verdict "
                             "or a stripped witness went unnoticed")
    failed = len(grader.errors)
    info.update(error_rate=failed / grader.attempted, self_check=checked,
                deck=len(deck))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in spec[key]}
    for err in grader.errors[:20]:
        print(f"ERROR {err}")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  at p{info['tail_percentile']} of {info['samples']} "
                    f"timed samples, {info['samples_beyond_tail']} beyond")
        print(f"{args.workload:>10} {name:<28} {value:>14.6g} {units[name]}"
              f"{note}")
    print(f"{args.workload:>10} {'error_rate':<28} "
          f"{info['error_rate']:>14.6g} ({failed} of {grader.attempted})")
    print(json.dumps({"provenance": prov, "info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": grader.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
