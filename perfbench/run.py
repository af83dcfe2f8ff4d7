"""noetherkit benchmark: seeded workloads, one forked process per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-ansatz --seed 1 --seconds 30 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``.  The
parent imports noetherkit from ``src/`` once and forks a child for every op,
so each op starts in the state of a freshly imported ``noether`` process (no
sympy cache entries, no state from earlier ops).  Ops run one at a time: a
closed loop with one client, as a CLI user waits for each result.  Passes
over the workload's op list repeat while another pass fits in ``--seconds``
(at least one pass).  ``run_s`` and ``cpu_s`` add up each op's median over the
passes, which keeps the host's bursts of slow or fast seconds out of them.
Every op is checked against its constructed expectation after the timed
passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
then traced passes (half the time each) and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one JSON
object.  The exit code is 1 if any op failed its oracle or an exact count did
not repeat, 2 if the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
FORK_REPEATS = 20
OP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def load_program():
    """Import noetherkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "noetherkit" / "__init__.py").is_file():
        raise MissingProgram(f"no noetherkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import noetherkit
    import noetherkit.cli  # noqa: F401  (ops and tracing find it in sys.modules)

    if Path(noetherkit.__file__).resolve().parent != SRC / "noetherkit":
        raise MissingProgram(f"noetherkit imported from {noetherkit.__file__}")


def environment(seed: int) -> dict:
    import numpy
    import sympy

    return {
        "python": platform.python_version(), "sympy": sympy.__version__,
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"), "seed": seed,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- set-up ------------------------------------------------------------------

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import noetherkit\n"
    "for path in sys.argv[1:]:\n"
    "    noetherkit.load_problem(path)\n"
    "print(time.perf_counter() - t0, noetherkit.__file__)\n"
)


def measure_setup(files) -> list[float]:
    """Seconds to import noetherkit and load the workload's files, in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, *files], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        if Path(out[1]).resolve().parent != SRC / "noetherkit":
            raise MissingProgram(f"set-up imported noetherkit from {out[1]}")
        times.append(float(out[0]))
    return times


def fork_wait_cost() -> float:
    """Median wall time of a bare fork + exit + wait."""
    times = []
    for _ in range(FORK_REPEATS):
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- ops ---------------------------------------------------------------------

def _drift_op(op: dict, seed: int, report: str) -> int:
    """One user-level symbolic drift check: load, integrals, symbolic_drift."""
    problem = sys.modules["noetherkit.problem"]
    conditions = sys.modules["noetherkit.conditions"]
    conservation = sys.modules["noetherkit.conservation"]
    p = problem.load_problem(op["problem"])
    X = next(c for c in p.candidates if c.name == op["candidate"])
    if X.boundary is None:
        X = X.with_boundary(conditions.recover_boundary_terms(p.L, X, seed=seed))
    comps = conservation.total_integral(p.L, X, seed=seed, assume_verified=True)
    result = conservation.symbolic_drift(p.L, comps, seed=seed)
    with open(report, "w") as fh:
        json.dump({"truncation_is_zero": result.truncation_is_zero}, fh)
    return 0


def _execute(op: dict, seed: int, report: str) -> int:
    if op["kind"] == "drift":
        return _drift_op(op, seed, report)
    argv = [op["kind"], op["problem"], "--seed", str(seed), "--report", report]
    if "candidate" in op:
        argv += ["--candidate", op["candidate"]]
    return sys.modules["noetherkit.cli"].main(argv)


def run_op(op: dict, seed: int, base: Path, recorder) -> dict:
    """Fork, run one op in the child, wait; time it from fork to reaped child."""
    report = f"{base}.json"
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(os.open(f"{base}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            signal.alarm(OP_TIMEOUT_S)
            code = _execute(op, seed, report)
            if recorder is not None:
                with open(f"{base}.trace.json", "w") as fh:
                    json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024, "exit": os.waitstatus_to_exitcode(status),
        "base": str(base),
    }


def run_passes(ops, seed: int, out: Path, seconds: float, recorder=None) -> list[dict]:
    """Passes over ``ops`` while one more pass of median length fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["run_s"] for p in passes) <= seconds):
        pass_dir = out / f"pass{len(passes)}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rows = [run_op(op, seed, pass_dir / str(k), recorder) for k, op in enumerate(ops)]
        passes.append({"run_s": time.perf_counter() - t0, "ops": rows})
    return passes


def check_passes(oracle: Oracle, ops, passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        for op, row in zip(ops, p["ops"]):
            attempted += 1
            report = None
            if os.path.exists(row["base"] + ".json"):
                with open(row["base"] + ".json") as fh:
                    report = json.load(fh)
            try:
                errors = oracle.check(op, row["exit"], report)
            except (KeyError, TypeError, ValueError) as exc:
                errors = [f"malformed report: {exc!r}"]
            row["errors"] = errors
            if errors:
                failed += 1
                name = Path(op["problem"]).stem
                messages.append(f"{op['kind']} {name} {op.get('candidate', '')}: "
                                f"{'; '.join(errors)} (see {row['base']}.err)")
    return attempted, failed, messages


# -- metrics -----------------------------------------------------------------

def end_to_end(passes, setup: list[float]) -> dict:
    """Per-op medians over the passes: summed for times, the largest for memory."""
    def op_medians(key):
        return [statistics.median(p["ops"][k][key] for p in passes)
                for k in range(len(passes[0]["ops"]))]

    return {
        "setup_s": statistics.median(setup),
        "run_s": sum(op_medians("wall_s")),
        "cpu_s": sum(op_medians("cpu_s")),
        "peak_rss_mb": max(op_medians("rss_mb")),
    }


def layer_profile(p: dict) -> tuple[dict, dict]:
    """Exact counts and self times of one traced pass, read from the op children."""
    counts = {f"{name}.calls": 0 for name in spans.TRACED}
    counts.update({name: 0 for name in spans.COUNT_NAMES})
    self_s = {name: 0.0 for name in spans.TRACED}
    for row in p["ops"]:
        path = row["base"] + ".trace.json"
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            data = json.load(fh)
        for name, (calls, seconds) in spans.self_times(data["spans"]).items():
            counts[f"{name}.calls"] += calls
            self_s[name] += seconds
        for name, n in data["counts"].items():
            counts[name] += n
    return counts, self_s


def per_layer(traced, untraced, fork_s: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)), the counts, and count mismatches."""
    profiles = [layer_profile(p) for p in traced]
    counts = profiles[0][0]
    mismatches = [f"pass {i}: {name} {c[name]} != {counts[name]}"
                  for i, (c, _) in enumerate(profiles[1:], 1)
                  for name in counts if c[name] != counts[name]]
    self_s = {name: statistics.median(s[name] for _, s in profiles) for name in spans.TRACED}
    metrics = {}
    for name in spans.TRACED:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in spans.COUNT_NAMES:
        metrics[name] = (counts[name], "count")
    for rate, count, span in (("dynamics.integrate.steps_per_s", "dynamics.integrate.steps",
                               "dynamics.integrate"),
                              ("dynamics.drift.points_per_s", "dynamics.drift.points",
                               "dynamics.drift")):
        metrics[rate] = (counts[count] / self_s[span] if self_s[span] > 0 else 0.0, "1/s")
    # per-op latency of the untraced passes; on workloads of a few long ops a
    # percentile is one op's time, too unsteady on a shared host for a bound
    walls = [r["wall_s"] for p in untraced for r in p["ops"]]
    metrics["op_p50_s"] = (percentile(walls, 0.5), "s")
    metrics["op_p90_s"] = (percentile(walls, 0.9), "s")
    metrics["op_samples"] = (len(walls), "count")
    metrics["trace_overhead_s"] = (
        statistics.median(p["run_s"] for p in traced)
        - statistics.median(p["run_s"] for p in untraced), "s")
    metrics["fork_wait_s"] = (fork_s, "s")
    return metrics, counts, mismatches


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "noetherkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier(workload: str, seed: int, counts: dict) -> list[str]:
    """Exact counts must repeat between traced runs of the same source and seed."""
    path = WORK / "counts" / f"{workload}-{seed}-{src_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"earlier traced run: {name} {earlier.get(name)} != {n}"
                for name, n in counts.items() if earlier.get(name) != n]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


# -- one workload ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reduced: bool = False) -> dict:
    out = WORK / f"{workload}-seed{seed}{'-reduced' if reduced else ''}"
    shutil.rmtree(out, ignore_errors=True)  # no report of an earlier run may be read
    ops = workloads.build(workload, seed, SRC / "noetherkit" / "fixtures", out / "problems",
                          reduced=reduced)
    fork_s = fork_wait_cost()
    if trace:
        untraced = run_passes(ops, seed, out / "untraced", seconds / 2)
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            traced = run_passes(ops, seed, out / "traced", seconds / 2, recorder)
        finally:
            uninstall()
        passes = untraced + traced
    else:
        setup = measure_setup(sorted({op["problem"] for op in ops}))
        passes = run_passes(ops, seed, out / "untraced", seconds)
    attempted, failed, messages = check_passes(Oracle(), ops, passes)
    if trace:
        metrics, counts, mismatches = per_layer(traced, untraced, fork_s)
        mismatches += compare_with_earlier(workload + ("-reduced" if reduced else ""),
                                           seed, counts)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(passes, setup).items()}
        mismatches = []
    result = {
        "workload": workload, "env": environment(seed), "ops_per_pass": len(ops),
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "fork_wait_s": fork_s,
        "setup_runs_s": None if trace else setup,
        "count_mismatches": mismatches, "messages": messages,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_details": passes,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    w = result["workload"]
    print(f"# {w}: env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# {w}: {result['passes']} pass(es) of {result['ops_per_pass']} ops; "
          f"bare fork+wait {result['fork_wait_s'] * 1e3:.2f} ms")
    for name, m in result["metrics"].items():
        print(f"{w:15s} {name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"{w:15s} {'failed_ratio':45s} {result['failed_ratio']:>14.6g} 1 "
          f"({result['failed']}/{result['attempted']} ops)")
    for line in result["messages"] + result["count_mismatches"]:
        print(f"# {w}: FAILED {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="name, comma-separated names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Python's string hashing orders sympy's sets and dicts, and with it how much
    # work an op does; one fixed hash seed keeps that work the same across runs
    # and seeds, so the exact counts repeat and seeds differ only in their inputs.
    hash_seed = "0"
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    names = workloads.WORKLOADS if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {workloads.WORKLOADS}")
    try:
        load_program()
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_result(result)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["count_mismatches"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
