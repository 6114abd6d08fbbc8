"""Self-test of the benchmark harness.

Run from the root of a checkout (takes about a minute):

    python3 bench/selftest.py

It checks that

* a tiny-size run of every workload prints, on its last line, exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, with every
  end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
  per-layer metric (``--trace 1``) and their units;
* the generated inputs depend only on the seed: two builds in two
  processes give identical inputs, and another seed gives other inputs;
* ``attempted`` and ``failed`` count distinct requests, so a longer run
  of the same seed repeats them without changing either count;
* without the library's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_WORKLOADS = ("small_compare", "large_fit", "surface_scan", "analytics")


def _hash_value(h, value):
    if isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _hash_value(h, item)
    else:
        h.update(repr(value).encode())


def input_digests(seed: int) -> dict:
    """Workload -> hash of every request label and input, for one seed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import pgduse
    import pgduse.cli
    import workloads

    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = {}
        for name in ALL_WORKLOADS:
            wl = workloads.build(name, pgduse, pgduse.cli, seed, True, workdir)
            h = hashlib.sha256()
            for cycle in wl.pool:
                for req in cycle:
                    _hash_value(h, (req.label, req.inputs))
            out[name] = h.hexdigest()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _digests_in_child(seed: int) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py"), "--digests", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_inputs_depend_only_on_seed():
    first, again, other = _digests_in_child(5), _digests_in_child(5), _digests_in_child(6)
    assert first == again, f"seed 5 gave different inputs in two processes: {first} {again}"
    for name in ALL_WORKLOADS:
        assert first[name] != other[name], f"{name}: seeds 5 and 6 gave the same inputs"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_tiny_runs_emit_every_metric():
    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for name in ALL_WORKLOADS:
        for trace in (0, 1):
            done = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"])
            assert done.returncode == 0, f"{name} trace={trace} exited {done.returncode}: " \
                                         f"{done.stderr[-2000:]}"
            last = json.loads(done.stdout.strip().splitlines()[-1])
            where = f"{name} trace={trace}"
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, where
            assert last["correct"] is True, f"{where}: {done.stdout[-3000:]}"
            assert isinstance(last["attempted"], int) and last["attempted"] >= 1, where
            assert isinstance(last["failed"], int), where
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == wanted[trace], f"{where}: metrics differ: " \
                f"missing {set(wanted[trace]) - set(got)}, extra {set(got) - set(wanted[trace])}"
            for key, value in last["metrics"].items():
                assert isinstance(value["value"], (int, float)), f"{where}: {key}"
            print(f"ok   {where}: {len(got)} metrics, {last['attempted']} requests, "
                  f"{last['failed']} failed", flush=True)


def check_counts_do_not_follow_run_length():
    counts = []
    for seconds in ("1", "4"):
        done = _run(["--workload", "surface_scan", "--seed", "3", "--seconds", seconds,
                     "--trace", "0", "--size", "tiny"])
        assert done.returncode == 0, f"surface_scan exited {done.returncode}: {done.stderr[-2000:]}"
        last = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append((last["attempted"], last["failed"]))
    assert counts[0] == counts[1], f"attempted and failed follow the run length: {counts}"


def check_refuses_without_sources():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        assert done.returncode != 0, "a run without sources exited 0"
        assert '"metrics"' not in done.stdout, "a run without sources printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--digests":
        print(json.dumps(input_digests(int(sys.argv[2]))))
        return 0
    for check in (check_refuses_without_sources, check_inputs_depend_only_on_seed,
                  check_counts_do_not_follow_run_length, check_tiny_runs_emit_every_metric):
        check()
        print(f"ok   {check.__name__}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
