"""contactconics benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (src/contactconics must be there).  A single
client drives a closed loop: one child process at a time, the next started
when the previous one has ended.  The last line of standard output is the
result object; the line before it (`meta {...}`) records the run, and the
full record (per-item times, every span) is written to
.perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import oracles
import workloads
from tracer import MODULES, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# A run's deadline is DEADLINE_MARGIN times its planned length: the fixed
# costs, its passes at their nominal length (two for a traced run, which
# runs one group untraced and then traced) and its set-up samples.  A child
# still running at the deadline is killed and the run ends with TIMEOUT_EXIT,
# printing no result.
DEADLINE_MARGIN = 3.0
FIXED_S = 20.0
SETUP_ALLOWANCE_S = 2.0
TIMEOUT_EXIT = 3

SETUP_CODE = "import contactconics; contactconics.load_worked_example()"

# Per-layer spans reported as <name>.calls and <name>.self_ms.
LAYER_SPANS = (
    "fixtures.build_worked_example", "fixtures.load_worked_example",
    "lattice.enumerate_height_vectors", "lattice.vectors_for_type",
    "lattice.main_theorem_rows", "lattice.smith_invariants",
    "lattice.zariski_pair_report",
    "curves.is_weak_contact", "curves.arrangement_fingerprint",
    "curves.intersection_multiplicity", "curves.contact_conic_type",
    "curves.cremona_transform", "curves.PlaneCurve.singular_points",
    "surface.group_add", "surface.group_mul", "surface.section_to_plane_curve",
    "surface.classify_fibers", "surface.component_index", "surface.from_quartic",
    "heights.height", "heights.section_intersection", "heights.gram_matrix",
    "poly.resultant_t", "poly.resultant_x", "poly.subresultant_chain",
    "poly.squarefree_decomposition", "poly.poly_gcd", "poly.k_rational_roots",
)
FIELD_OPS = ("mul", "add", "inv", "sqrt")
SYMPY_SPANS = ("sympy.factor_list", "sympy.Poly.factor_list")

# Metrics the prediction table (README) marks as moving on each workload;
# the traced run requires each to be non-zero there.
MUST_FIRE = {
    "cli-cold": (
        "field.self_ms", "field.mul.calls",
        "fixtures.build_worked_example.self_ms", "sympy.imported",
        "curves.is_weak_contact.self_ms", "curves.shear_success_ratio",
        "surface.group_add.self_ms", "heights.height.self_ms",
        "surface.component_index.self_ms",
    ),
    "arrangements": (
        "field.self_ms", "field.mul.calls", "curves.distinct_pair_ratio",
        "poly.resultant_t.calls", "poly.subresultant_chain.calls",
        "poly.k_rational_roots.self_ms", "sympy.self_ms",
    ),
    "lattice-enum": ("lattice.enumerate_height_vectors.self_ms",),
}


class RunTimeout(Exception):
    """The run passed its deadline."""


def deadline_s(workload: str, passes: int, traced: bool) -> float:
    spec = workloads.WORKLOADS[workload]
    if traced:
        planned = 2 * spec.nominal_s
    else:
        planned = passes * spec.nominal_s + spec.setup_samples * SETUP_ALLOWANCE_S
    return DEADLINE_MARGIN * (FIXED_S + planned)


class Run:
    """Children of one benchmark run, started one at a time."""

    def __init__(self, workload: str, limit_s: float):
        self.workload = workload
        self.limit_s = limit_s
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.tmp = WORK / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: exit code, stdout, wall time, peak RSS."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunTimeout(f"the run passed its deadline of {self.limit_s:.0f} s")
        with open(self.tmp / "stderr.txt", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=stderr, cwd=ROOT, env=self.env,
            )
            killed = []

            def stop():
                killed.append(True)
                proc.kill()

            timer = threading.Timer(timeout, stop)
            timer.start()
            try:
                stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
            wall = time.perf_counter() - start
        if killed:
            raise RunTimeout(
                f"a child was stopped at the run's deadline of {self.limit_s:.0f} s"
            )
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "stdout": stdout.decode("utf-8", errors="replace"),
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
        }

    def setup_only(self) -> float:
        """One process that only sets up: its set-up time."""
        if self.workload != "cli-cold":
            return self.child([], traced=False)["setup_s"]
        done = self.spawn([sys.executable, "-c", SETUP_CODE])
        if done["code"] != 0:
            raise RuntimeError("the set-up process failed")
        return done["wall_s"]

    def cli_item(self, item: dict, traced: bool) -> dict:
        if not traced:
            done = self.spawn([sys.executable, "-c", workloads.CLI_ENTRY, *item["argv"]])
            done["trace"] = None
            return done
        trace_path = self.tmp / "trace.json"
        trace_path.unlink(missing_ok=True)
        done = self.spawn([
            sys.executable, str(HERE / "child.py"), "cli", str(trace_path), "--",
            *item["argv"],
        ])
        done["trace"] = (
            json.loads(trace_path.read_text(encoding="utf-8"))
            if trace_path.exists() else None
        )
        return done

    def child(self, items: list[dict], traced: bool) -> dict:
        in_path, out_path = self.tmp / "items.json", self.tmp / "result.json"
        in_path.write_text(json.dumps(items), encoding="utf-8")
        out_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "items", str(in_path), str(out_path)]
        if traced:
            argv.append("--trace")
        if workloads.WORKLOADS[self.workload].loads_example:
            argv.append("--load")
        done = self.spawn(argv)
        if done["code"] != 0 or not out_path.exists():
            stderr = (self.tmp / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"child failed with exit code {done['code']}:\n{stderr}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        result["maxrss_kb"] = done["maxrss_kb"]
        return result


def measure(run: Run, passes, traced: bool, setup_extra: int = 0) -> dict:
    """The timed phase: every pass, one process at a time.

    `setup_extra` processes that only set up are spread evenly among the
    measured ones, so the set-up samples see the whole run.
    """
    times, outputs, failures, errors, rss, setups, snapshots = [], [], [], [], [], [], []
    units = [items for children in passes for items in children]
    if run.workload == "cli-cold":
        units = [[item] for items in units for item in items]
    slots = Counter(int((k + 0.5) * len(units) / setup_extra) for k in range(setup_extra))
    for index, items in enumerate(units):
        setups += [run.setup_only() for _ in range(slots[index])]
        if run.workload == "cli-cold":
            done = run.cli_item(items[0], traced)
            times.append(done["wall_s"])
            outputs.append({"code": done["code"], "stdout": done["stdout"]})
            rss.append(done["maxrss_kb"])
            if done["code"] != 0:
                failures.append(f"exit-{done['code']}")
            if traced and done["trace"] is not None:
                snapshots.append(done["trace"])
            continue
        result = run.child(items, traced)
        times += result["times"]
        outputs += result["outputs"]
        failures += result["failures"]
        errors += result["errors"]
        rss.append(result["maxrss_kb"])
        setups.append(result["setup_s"])
        if traced:
            snapshots.append(result["trace"])
    return {
        "times": times, "outputs": outputs, "failures": failures, "errors": errors,
        "rss_kb": rss, "setups": setups, "snapshots": snapshots,
    }


def check_outputs(workload: str, passes, outputs: list) -> list[list[str]]:
    """Oracle problems per item, in the order the items ran."""
    problems, position = [], 0
    for children in passes:
        for items in children:
            chunk = outputs[position:position + len(items)]
            position += len(items)
            fingerprints = {
                item["id"]: output for item, output in zip(items, chunk)
                if item["kind"] == "fingerprint" and output is not None
            }
            for item, output in zip(items, chunk):
                if output is None:
                    problems.append(["raised"])
                elif workload == "cli-cold":
                    problems.append(oracles.check_cli(item, output))
                elif workload == "arrangements":
                    problems.append(oracles.check_arrangement(item, output, fingerprints))
                else:
                    problems.append(oracles.check_lattice(item, output))
    return problems


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten items beyond it."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(snapshot: dict, timed_s: float, overhead: float) -> dict:
    spans = snapshot["spans"]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_ms(name):
        return spans.get(name, (0, 0.0))[1] * 1000.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    values = {}
    for name in LAYER_SPANS:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_ms"] = self_ms(name)
    values["fixtures.load_hit_ratio"] = ratio(snapshot["load_hits"], snapshot["loads"])
    parsing = [name for name in spans if name.startswith("parsing.")]
    values["parsing.calls"] = sum(calls(name) for name in parsing)
    for op in FIELD_OPS:
        values[f"field.{op}.calls"] = snapshot["field_calls"].get(op, 0)
    values["sympy.calls"] = sum(calls(name) for name in SYMPY_SPANS)
    values["sympy.self_ms"] = sum(self_ms(name) for name in SYMPY_SPANS)
    values["sympy.import_ms"] = self_ms("sympy.import")
    values["sympy.imported"] = ratio(snapshot["sympy_imported"], snapshot["processes"])
    values["cli.main.self_ms"] = self_ms("cli.main")
    for module in MODULES:
        names = [name for name in spans if name.startswith(f"{module}.")]
        if module == "field":
            names.append("field")
        total = sum(self_ms(name) for name in names)
        values[f"{module}.self_ms"] = total
        values[f"{module}.share"] = ratio(total, timed_s * 1000.0)
    values["curves.shear_success_ratio"] = ratio(
        snapshot["certificates"], snapshot["curves_resultants"]
    )
    values["curves.distinct_pair_ratio"] = ratio(
        snapshot["distinct_pairs"], snapshot["pair_computations"]
    )
    values["trace.overhead_ratio"] = overhead
    return values


def _declared(kind: str) -> dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def timed_phase(run: Run, passes, trace: int):
    """(untraced measurement, traced measurement or None)."""
    if trace:
        return measure(run, passes, traced=False), measure(run, passes, traced=True)
    samples = workloads.WORKLOADS[run.workload].setup_samples
    children = 0 if run.workload == "cli-cold" else sum(len(c) for c in passes)
    return measure(run, passes, traced=False, setup_extra=max(0, samples - children)), None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contactconics" / "__init__.py").is_file():
        print(f"no contactconics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once so that every measured process imports from bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )

    passes = workloads.build_passes(args.workload, args.seed, args.seconds)
    run = Run(args.workload, deadline_s(args.workload, len(passes), bool(args.trace)))
    if args.trace:
        # The traced run measures the first group of the first pass
        # untraced, then traced.
        passes = [passes[0][:1]]
    try:
        plain, traced = timed_phase(run, passes, args.trace)
    except RunTimeout as exc:
        print(f"timeout: {exc}; no result", file=sys.stderr)
        return TIMEOUT_EXIT
    setups = plain["setups"]

    problems = check_outputs(args.workload, passes, plain["outputs"])
    mismatch = traced is not None and traced["outputs"] != plain["outputs"]
    wrong = [p for p in problems if p]
    failed = sum(1 for p in problems if p)
    attempted = len(plain["times"])
    failure_types = Counter(plain["failures"])
    # Every raised item or failed process is also an oracle problem.
    if failed > len(plain["failures"]):
        failure_types["wrong-answer"] = failed - len(plain["failures"])
    if traced is not None:
        attempted += len(traced["times"])
        failed += len(traced["failures"])
        failure_types.update(traced["failures"])

    items_per_s = len(plain["times"]) / sum(plain["times"])
    tail_ms, tail_pct = tail(plain["times"])
    fired_missing: list[str] = []
    if traced is not None:
        traced_s = sum(traced["times"])
        overhead = (len(traced["times"]) / traced_s) / items_per_s
        values = layer_metrics(merge(traced["snapshots"]), traced_s, overhead)
        fired_missing = [name for name in MUST_FIRE[args.workload] if not values[name]]
        kind = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": items_per_s,
            "item_p50_ms": statistics.median(plain["times"]) * 1000.0,
            "item_tail_ms": tail_ms * 1000.0,
            "peak_rss_mb": max(plain["rss_kb"]) / 1024.0,
        }
        kind = "end_to_end"
    declared = _declared(kind)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    correct = not wrong and not mismatch and not fired_missing and failed == 0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "items_per_pass": sum(len(items) for items in passes[0]),
        "items_timed": len(plain["times"]),
        "tail_percentile": round(tail_pct, 1),
        "fail_ratio": failed / attempted,
        "failure_types": dict(failure_types),
        "setup_samples": setups,
        "traced_outputs_identical": None if traced is None else not mismatch,
        "spans_missing": fired_missing,
        "problems": [p for item in wrong for p in item][:20],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(meta, metrics=metrics, item_times=plain["times"], errors=plain["errors"][:5])
    if traced is not None:
        record["spans"] = merge(traced["snapshots"])
        record["traced_item_times"] = traced["times"]
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
