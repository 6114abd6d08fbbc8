"""Closed-loop benchmark of pgduse: end-to-end metrics, or a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload small_compare --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One caller sends each request only after the previous one returned.  The
library is imported from ``src/`` of the checkout.  Every output is
checked against references built by ``reference.py`` before timing.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions of every ``pgduse`` module (see ``tracer.py``) and prints
the per-layer metrics instead.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, each starting with ``#``, give every
metric with its sample count, the machine fingerprint, and the failures.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("small_compare", "surface_scan", "analytics", "large_fit")
END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TRACE_MIN_CYCLES = 3          # warm-up untraced, traced, untraced
PROCESS_BUDGET_S = 165.0      # the time guard stops any request past this
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
INCORRECT = ("wrong", "raised")
PROBE_LOOPS = 20_000
PROBE_POINTS = 1_000_000
PROBE_REF_S = {"python": 1.2e-3, "vector": 4.0e-3}   # medians on the reference machine
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = {"python": None, "vector": 1.0}    # None: one factor for the whole run
IMPORT_CMD = "import pgduse, pgduse.cli"


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, else the capped environment value."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return f"{func()} ({Path(path).name})"
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (environment cap)"


def fingerprint(nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = done.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "thread_caps": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "git_sha": sha,
        "platform": platform.platform(),
    }


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class SpeedProbe:
    """Times a fixed kernel now and then, to follow the speed the CPU gives us.

    On a shared machine that speed drifts by tens of percent within a
    minute, in CPU time as much as in wall time.  A time measured over the
    same interval, multiplied by ``factor()``, is the time it would take at
    the speed where the probe takes its PROBE_REF_S.  The ``python`` probe
    is an interpreter loop, like the optimizer and the scalar calls; the
    ``vector`` probe is log1p and expm1 over 1e6 doubles, like the kernels.
    The vector probe follows the drift closely enough to scale each request
    by the probes within PROBE_WINDOW_S of it; the python probe is noisier
    sample to sample and scales a whole run by one median.
    """

    def __init__(self, kind: str = "python"):
        self.kind = kind
        self.samples = []
        self.stamps = []
        self.spent = 0.0
        self.last = -math.inf
        if kind == "vector":
            import numpy as np

            self.x = np.linspace(1e-3, 50.0, PROBE_POINTS)
            self.y = np.empty_like(self.x)

    def _kernel(self):
        if self.kind == "vector":
            import numpy as np

            np.log1p(self.x, out=self.y)
            np.expm1(np.negative(self.y, out=self.y), out=self.y)
            return
        total = 0.0
        for i in range(PROBE_LOOPS):
            total += i * 0.5

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.stamps.append(t1)
        self.spent += t1 - t0
        self.last = t1
        return t1 - t0

    def maybe(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return PROBE_REF_S[self.kind] / statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        window = PROBE_WINDOW_S[self.kind]
        if window is None:
            return self.factor()
        near = [d for s, d in zip(self.stamps, self.samples) if abs(s - t) <= window]
        if len(near) < 3:
            return self.factor()
        return PROBE_REF_S[self.kind] / statistics.median(near)


def time_imports(repeats: int) -> tuple:
    """Fresh-interpreter import times of pgduse and its CLI, raw and scaled."""
    raw, scaled = [], []
    for _ in range(repeats):
        probe = SpeedProbe()
        for _ in range(5):
            probe.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=_child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * probe.factor())
    return raw, scaled


def analytic_import_ms(repeats: int) -> list:
    """Cumulative import time of pgduse.analytic from ``-X importtime``."""
    values = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                              env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "pgduse.analytic":
                values.append(int(parts[1]) / 1e3)
    return values


class TimeGuard:
    """Raises TimeoutError inside whatever runs once the process budget is spent."""

    def __init__(self, budget_s: float):
        self.deadline = time.perf_counter() + budget_s

    def __enter__(self):
        def fire(signum, frame):
            raise TimeoutError("process time budget spent")

        signal.signal(signal.SIGALRM, fire)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.perf_counter(), 0.001))
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


@dataclass(slots=True)
class Outcome:
    cycle: int
    position: int
    label: str
    start: float
    latency: float
    failures: list
    traced: bool
    request: tuple                # (workload, pool cycle, position): one distinct request


def run_request(req, wl_module, tracer, request_id):
    if tracer is not None:
        tracer.request_id = request_id
    result, exc = None, None
    t0 = time.perf_counter()
    try:
        result = req.call()
    except Exception as err:  # every error is an outcome the check classifies
        exc = err
    latency = time.perf_counter() - t0
    try:
        failures = req.check(result, exc)
    except TimeoutError as err:
        failures = [wl_module.Failure("timeout", str(err))]
    return t0, latency, failures


def run_cycle(workload, c, wl_module, outcomes, guard, tracer=None, traced=False,
              stop_at=None, record_first=False, probe=None) -> bool:
    """Run cycle ``c``; returns False if the loop has to stop.

    ``record_first`` also feeds the tracer's exact counts, which must come
    from cycles whose inputs depend only on the seed.
    """
    if traced:
        tracer.recording_first = record_first
        tracer.install()
    try:
        for pos, req in enumerate(workload.cycle(c)):
            if guard.expired() or (stop_at is not None and time.perf_counter() >= stop_at):
                return False
            start, latency, failures = run_request(req, wl_module, tracer, len(outcomes))
            outcomes.append(Outcome(c, pos, req.label, start, latency, failures, traced,
                                    (workload.name, c % len(workload.pool), pos)))
            if probe is not None:
                probe.maybe()
            if any(f.kind == "timeout" for f in failures):
                return False
    finally:
        if traced:
            tracer.uninstall()
            tracer.recording_first = False
    return True


def closed_loop(workload, seconds, wl_module, guard, probe, tracer=None):
    """Untraced: request-level deadline.  Traced: whole cycles, alternating."""
    outcomes = []
    t0 = time.perf_counter()
    probe.sample()
    c = 0
    with guard:
        if tracer is None:
            while run_cycle(workload, c, wl_module, outcomes, guard, stop_at=t0 + seconds,
                            probe=probe):
                c += 1
        else:
            while c < TRACE_MIN_CYCLES or time.perf_counter() - t0 < seconds:
                if not run_cycle(workload, c, wl_module, outcomes, guard, tracer,
                                 traced=c % 2 == 1, record_first=c == 1, probe=probe):
                    break
                c += 1
    return outcomes, time.perf_counter() - t0


def tail_latency(latencies):
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        index = math.ceil(p / 100.0 * n) - 1
        if index >= 0 and n - index - 1 >= 10:
            best = (p, ordered[index] * 1e3, n - index - 1)
    return best


def summarize(outcomes):
    """Counts distinct requests, not the loop's repetitions of them.

    A request is one entry of a workload's input pool, and the loop sends it
    again with the same inputs each time its cycle comes round.  It failed
    if any of its repetitions failed.  Counting repetitions would make
    ``failed`` follow how many cycles the machine's speed allowed, though
    the same requests fail every time.
    """
    runs = defaultdict(list)
    for o in outcomes:
        runs[o.request].extend(o.failures)
    attempted = len(runs)
    failed = sum(1 for failures in runs.values() if failures)
    kinds = Counter(k for failures in runs.values() for k in {f.kind for f in failures})
    defects = Counter(d for failures in runs.values()
                      for d in {f.defect for f in failures if f.defect})
    unexpected = [(o.label, f) for o in outcomes for f in o.failures if f.kind in INCORRECT]
    return attempted, failed, kinds, defects, unexpected


def emit(line: str):
    print(line, flush=True)


def report_failures(outcomes, wl_module):
    attempted, failed, kinds, defects, unexpected = summarize(outcomes)
    emit(f"# fail_frac = {failed}/{attempted} = {failed / max(attempted, 1):.4f} over distinct "
         f"requests, sent {len(outcomes)} times (failure kinds: {dict(kinds) or 'none'})")
    for name, count in sorted(defects.items()):
        emit(f"# known defect {name}: {count} requests; {wl_module.KNOWN_DEFECTS[name]}")
    for label, failure in unexpected[:20]:
        emit(f"# FAILURE {failure.kind} in {label}: {failure.detail}")
    nonconverged = [(o.label, f.detail) for o in outcomes for f in o.failures
                    if f.kind == "nonconverged"]
    for label, detail in nonconverged[:5]:
        emit(f"# nonconverged {label}: {detail}")
    return attempted, failed, not unexpected, defects


def per_label(outcomes):
    groups = defaultdict(list)
    for o in outcomes:
        groups[o.label].append(o.latency)
    return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
            for k, v in sorted(groups.items())}


def end_to_end(name, workload, outcomes, probe, setup):
    """The gated metrics; times are scaled to the probe's reference speed.

    Throughput counts the time spent inside requests, not the benchmark's
    own checks and probes between them.
    """
    latencies = [o.latency for o in outcomes]
    if not latencies:
        emit(f"# {name}: no request ran before the process time budget was spent")
        return {}, None
    scaled = [o.latency * probe.factor_at(o.start + o.latency / 2) for o in outcomes]
    raw = {
        "throughput_rps": len(outcomes) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setup[0]),
    }
    metrics = {
        "throughput_rps": (len(outcomes) / math.fsum(scaled), len(outcomes)),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup[1]), len(setup[1])),
    }
    units = dict(END_TO_END)
    window = PROBE_WINDOW_S[probe.kind]
    scope = "the run median" if window is None else f"probes within {window:g} s"
    emit(f"# {name} {probe.kind} speed probe: median {statistics.median(probe.samples) * 1e3:.4g} "
         f"ms over {len(probe.samples)} samples (reference {PROBE_REF_S[probe.kind] * 1e3:g} ms); "
         f"times below are scaled by {scope}")
    for key, (value, samples) in metrics.items():
        note = f", raw {raw[key]:.6g}" if key in raw else ""
        emit(f"# {name} {key} = {value:.6g} {units[key]} (samples={samples}{note})")
    tail = tail_latency(latencies)
    if tail:
        emit(f"# {name} latency_tail_ms = {tail[1]:.6g} ms (raw) at p{tail[0]:g} "
             f"({tail[2]} of {len(latencies)} samples beyond it)")
    else:
        emit(f"# {name} latency_tail_ms omitted: {len(latencies)} requests leave fewer than "
             "ten beyond p75")
    computed = sum(r.work_bytes for c in range(len(workload.pool)) for r in workload.cycle(c))
    if computed:
        emit(f"# {name} computed bytes per cycle = {computed / len(workload.pool) / 1e6:.1f} MB "
             "(inputs plus outputs; not a bandwidth)")
    return metrics, tail


def traced_run(name, workload, args, wl_module, tracer_mod, pg, pg_cli, guard, workdir):
    tracer = tracer_mod.Tracer()
    probe = SpeedProbe(workload.probe)
    outcomes, wall = closed_loop(workload, args.seconds, wl_module, guard, probe, tracer)
    emit(f"# {name} {probe.kind} speed probe: median {statistics.median(probe.samples) * 1e3:.4g}"
         f" ms (reference {PROBE_REF_S[probe.kind] * 1e3:g} ms); per-layer times are not scaled")
    found = {k: v + ("traced loop",) for k, v in tracer_mod.layer_metrics(tracer).items()}
    write_spans(tracer, name, args.seed)

    traced, untraced = defaultdict(list), defaultdict(list)
    for o in outcomes:
        if o.cycle >= 1:
            (traced if o.traced else untraced)[o.position].append(o.latency)
    overhead = tracer_mod.overhead_pct(traced, untraced)
    if overhead is not None:
        found["trace.overhead_pct"] = overhead + ("traced vs untraced cycles",)

    missing = [m for m, _ in tracer_mod.PER_LAYER if m not in found
               and m not in ("setup.analytic_import_ms", "trace.overhead_pct")]
    if missing:
        # layers this workload never enters: one traced tiny cycle of each other workload
        extra = tracer_mod.Tracer()
        for other in ("small_compare", "surface_scan", "analytics"):
            if other == name:
                continue
            small = wl_module.build(other, pg, pg_cli, args.seed, True, workdir)
            with guard:
                run_cycle(small, 1, wl_module, outcomes, guard, extra, traced=True,
                          record_first=True)
        for key, value in tracer_mod.layer_metrics(extra).items():
            if key in missing:
                found[key] = value + ("tiny cycles of the other workloads",)
    imports = analytic_import_ms(IMPORTTIME_REPEATS)
    if imports:
        found["setup.analytic_import_ms"] = (statistics.median(imports), len(imports),
                                             "-X importtime, fresh interpreters")
    metrics = {}
    for key, unit in tracer_mod.PER_LAYER:
        if key not in found:
            emit(f"# {name} {key}: NOT MEASURED")
            continue
        value, samples, source = found[key]
        exact = " exact" if key in tracer_mod.EXACT else ""
        emit(f"# {name} {key} = {value:.6g} {unit} (samples={samples}{exact}; {source})")
        metrics[key] = (value, samples)
    emit(f"# {name} traced loop: {len(outcomes)} requests in {wall:.2f} s; spans kept for the "
         f"first traced cycle: {len(tracer.spans)}")
    return outcomes, metrics


def write_spans(tracer, name, seed):
    out = ROOT / ".bench_work" / f"spans-{name}-seed{seed}.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        for request_id, span_id, parent_id, key, tag, t0, t1 in tracer.spans:
            handle.write(json.dumps({"request": request_id, "span": span_id, "parent": parent_id,
                                     "name": key, "tag": tag, "start": t0, "end": t1}) + "\n")
    emit(f"# spans of the first traced cycle written to {out.relative_to(ROOT)}")


def run_workload(name, args, mods, guard, workdir, setup):
    pg, pg_cli, wl_module, tracer_mod = mods
    t0 = time.perf_counter()
    workload = wl_module.build(name, pg, pg_cli, args.seed, args.size == "tiny", workdir)
    emit(f"# {name}: inputs and references built in {time.perf_counter() - t0:.2f} s "
         f"({len(workload.pool)} input cycles of {len(workload.cycle(0))} requests)")
    if args.trace:
        outcomes, metrics = traced_run(name, workload, args, wl_module, tracer_mod, pg, pg_cli,
                                       guard, workdir)
        units = dict(tracer_mod.PER_LAYER)
        record = {"per_layer": {k: {"value": v, "unit": units[k], "samples": s}
                                for k, (v, s) in metrics.items()}}
    else:
        probe = SpeedProbe(workload.probe)
        outcomes, _ = closed_loop(workload, args.seconds, wl_module, guard, probe)
        metrics, tail = end_to_end(name, workload, outcomes, probe, setup)
        units = dict(END_TO_END)
        record = {"end_to_end": {k: {"value": v, "unit": units[k], "samples": s}
                                 for k, (v, s) in metrics.items()},
                  "latency_tail_ms": tail and {"percentile": tail[0], "value": tail[1],
                                               "beyond": tail[2]},
                  "requests": per_label(outcomes)}
    attempted, failed, correct, defects = report_failures(outcomes, wl_module)
    record.update(workload=name, attempted=attempted, failed=failed, correct=correct,
                  fail_frac=failed / max(attempted, 1), known_defects=dict(defects))
    return record, {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "pgduse" / "__init__.py").is_file():
        print(f"error: no pgduse sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    guard = TimeGuard(PROCESS_BUDGET_S)
    import pgduse
    import pgduse.cli as pg_cli
    import tracer as tracer_mod
    import workloads as wl_module

    emit(f"# bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} size={args.size}")
    fp = fingerprint(nproc)
    emit("# fingerprint " + json.dumps(fp, sort_keys=True))
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = ([], []) if args.trace else time_imports(SETUP_REPEATS)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records, metrics = [], {}
        for name in names:
            record, found = run_workload(name, args, (pgduse, pg_cli, wl_module, tracer_mod),
                                         guard, workdir, setup)
            records.append(record)
            for key, value in found.items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit("# result " + json.dumps({"fingerprint": fp, "seed": args.seed, "seconds": args.seconds,
                                   "trace": args.trace, "size": args.size, "workloads": records},
                                  sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
