"""Benchmark of the imptables CLI: fixed sessions of subprocess calls, checked.

Usage, from the root of a checkout (the package runs from src/ and need not
be installed):

    python3 perfbench/run.py [--workload monoid|brute|deep|queries|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A run times PROBES fresh interpreters running the cheapest call
(`setup_s`), half before the sessions and half after.  Between them it runs
the workload's session, each call its own process, one after another from
this one process, again and again while the run still fits in --seconds (at
least once).  reference.py runs around every probe and after about every
half second of calls, to gauge the host's speed.  Every call's exit code and stdout are checked against
workloads.py and expected.json.

--trace 0 reports the end-to-end metrics: wall_s (mean session time) and
setup_s (median probe time), both scaled to the host's speed, and
peak_rss_mb (median over the sessions); error_rate is `failed / attempted`.
--trace 1 runs each session once more through tracer.py and reports the
per-layer metrics instead.  The last stdout line is one JSON object; a run
record with the environment and every call goes to perfbench/out/.
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
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, session, verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PROBES = 9
REFERENCE = (sys.executable, str(BENCH / "reference.py"))
# reference.py's time on the 2-vCPU Intel Xeon VM the benchmark was defined
# on.  Times are scaled by REF_S / (reference.py's mean time around them):
# the seconds they would take on a host that ran reference.py in REF_S.
REF_S = 0.1
# reference.py runs after a call once the calls since its last run took this
# long: about as long as a fast or slow spell of the host lasts.
REF_EVERY_S = 0.5
PROBE_ARGV = ("series", "i", "--n", "1")
ENTRY = "from imptables.cli import entry; entry()"
INVOCATION = f'PYTHONPATH=src python3 -c "{ENTRY}" ARGV...'
CLAIMS = (
    "commutativity",
    "associativity",
    "bound",
    "partitions",
    "power_identities",
    "ideal_samples",
    "substitution_bounds",
)


def child_env() -> dict[str, str]:
    """The caller's environment without IMPTABLES_* defaults, src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IMPTABLES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_call(cmd: list[str], env: dict[str, str]):
    """Run one process; return (exit code, stdout, wall seconds, peak RSS MiB).

    spawn.py times the process from launch to exit and takes its own peak RSS
    from os.wait4, not the running maximum over all children that
    RUSAGE_CHILDREN gives.
    """
    result = OUT / "spawn.txt"
    result.unlink(missing_ok=True)
    with open(OUT / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(result), *cmd],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        proc.wait()
    if not result.exists():
        return None, stdout, 0.0, 0.0
    code, wall, rss_kib = result.read_text().split()
    return int(code), stdout, float(wall), int(rss_kib) / 1024


def reference_seconds(env: dict[str, str]) -> float:
    """Wall seconds of one run of reference.py, launched as calls are."""
    code, _, wall, _ = run_call(list(REFERENCE), env)
    if code != 0:
        sys.exit(f"error: {' '.join(REFERENCE)} exited {code}")
    return wall


def stdout_ok(call, argv, stdout: bytes, expected: dict) -> bool:
    want = expected.get(call.key(argv))
    if want is None:
        return False
    if call.seeded:
        return verdict(stdout) == want["verdict"]
    return len(stdout) == want["bytes"] and hashlib.sha256(stdout).hexdigest() == want["sha256"]


def run_session(pairs: list, expected: dict, traced: bool) -> dict:
    """One pass over (call, argv) pairs; `traced` runs them through tracer.py."""
    env = child_env()
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    calls, traces = [], []
    refs, unreferenced = [reference_seconds(env)], 0.0
    for i, (call, argv) in enumerate(pairs):
        spans = spans_dir / f"{i:02d}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        code, stdout, wall, rss = run_call(cmd, env)
        ok = stdout_ok(call, argv, stdout, expected)
        calls.append(
            {
                "argv": list(argv),
                "exit": code,
                "want_exit": call.exit,
                "stdout_ok": ok,
                "stdout_bytes": len(stdout),
                "wall_s": wall,
                "peak_rss_mb": rss,
            }
        )
        if code != call.exit or not ok:
            stderr = (OUT / "stderr.txt").read_text(errors="replace").strip()
            print(
                f"FAIL {' '.join(argv)}: exit {code} (contract {call.exit}), "
                f"stdout {'ok' if ok else 'differs'}"
                + (f"; stderr ends: {stderr.splitlines()[-1]}" if stderr else ""),
                file=sys.stderr,
            )
        if traced:
            traces.append(json.loads(spans.read_text()) if spans.exists() else None)
            spans.unlink(missing_ok=True)
        unreferenced += wall
        if unreferenced >= REF_EVERY_S or i == len(pairs) - 1:
            refs.append(reference_seconds(env))
            unreferenced = 0.0
    result = {
        "wall_s": sum(c["wall_s"] for c in calls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        "attempted": len(calls),
        "failed": sum(c["exit"] != c["want_exit"] or not c["stdout_ok"] for c in calls),
        "correct": all(c["stdout_ok"] for c in calls),
        "calls": calls,
        "refs": refs,
    }
    if traced:
        result["layers"] = layer_metrics(traces, result)
    return result


def layer_metrics(traces: list, result: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced session.

    A name's time is the total of its outermost spans; a layer's self time is
    its spans' durations minus what their direct children cover.
    """
    busy, self_s, counts = Counter(), Counter(), Counter()
    covered, sqrt_inputs = 0.0, []
    for trace in traces:
        if trace is None:  # the call died before writing its spans
            continue
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name.split(".")[0]] += end - start - children[i]
            if parent < 0:
                covered += end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
        counts.update(trace["counts"])
        sqrt_inputs += trace["sqrt_inputs"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "logic.brute_counts.s": busy["logic.brute_counts"],
        "logic.entries": counts["logic.entries"],
        "logic.entries_per_s": per(counts["logic.entries"], busy["logic.brute_counts"]),
        "logic.color_class_counts.s": busy["logic.color_class_counts"],
        "logic.enumerate_bracketings.s": busy["logic.enumerate_bracketings"],
        "logic.evaluate.calls": counts["logic.evaluate.calls"],
        "logic.evaluate.s": busy["logic.evaluate"],
        "recurrences.counts_by_recurrence.s": busy["recurrences.counts_by_recurrence"],
        "recurrences.terms": counts["recurrences.terms"],
        "series.mul.calls": counts["series.mul.calls"],
        "series.mul.s": busy["series.mul"],
        "series.mul.coeff_products": counts["series.mul.coeff_products"],
        "series.mul.coeff_products_per_s": per(
            counts["series.mul.coeff_products"], busy["series.mul"]
        ),
        "series.closed_form.calls": counts["series.closed_form.calls"],
        "series.closed_form.s": busy["series.closed_form"],
        "series.sqrt.calls": counts["series.sqrt.calls"],
        "series.sqrt.s": busy["series.sqrt"],
        "series.sqrt.useful_ratio": per(len(set(sqrt_inputs)), len(sqrt_inputs)),
        "monoid.realizer_init.s": busy["monoid.realizer_init"],
        "monoid.realize.calls": counts["monoid.realize.calls"],
        "monoid.realize.hit_ratio": per(
            counts["monoid.realize.hits"], counts["monoid.realize.calls"]
        ),
        "monoid.power.calls": counts["monoid.power.calls"],
        "monoid.run_all.s": busy["monoid.run_all"],
        **{f"monoid.claim.{c}.s": busy[f"monoid.claim.{c}"] for c in CLAIMS},
        "cli.main.s": busy["cli.main"],
        "cli.stdout_bytes": sum(c["stdout_bytes"] for c in result["calls"]),
        **{f"{layer}.self.s": self_s[layer]
           for layer in ("logic", "recurrences", "series", "monoid", "cli")},
        "trace.uncovered_share": 1 - covered / result["wall_s"],
    }
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    env = child_env()

    def probe(count: int) -> list:
        """(exit code, stdout, wall seconds) of `count` probes, timing reference.py too."""
        out = []
        probe_refs.append(reference_seconds(env))
        for _ in range(count):
            out.append(run_call([sys.executable, "-c", ENTRY, *PROBE_ARGV], env)[:3])
            probe_refs.append(reference_seconds(env))
        return out

    probe_refs: list[float] = []

    # Half the probes before the sessions and half after, so that a slow
    # spell of a shared machine does not set the whole median.  The run,
    # probes included, ends before `seconds` if the times so far predict it.
    start = perf_counter()
    probes = probe(PROBES // 2)
    probing = perf_counter() - start
    calls = session(workload, seed)
    plain, traced = [], []
    while True:
        plain.append(run_session(calls, expected, traced=False))
        if trace:
            traced.append(run_session(calls, expected, traced=True))
        elapsed = perf_counter() - start
        if elapsed + (elapsed - probing) / len(plain) + probing > seconds:
            break
    probes += probe(PROBES - PROBES // 2)
    probes_ok = all(code == 0 and stdout == b"0\n" for code, stdout, _ in probes)
    if not probes_ok:
        print(f"FAIL {' '.join(PROBE_ARGV)}: wrong exit code or stdout", file=sys.stderr)
    sessions = plain + traced
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    # The host's speed comes in spells of about a second, fast or slow, whose
    # mix drifts from minute to minute.  Means over the run average the
    # spells; scaling each time by reference.py's mean time around the same
    # calls removes the drift.  A median would jump between fast and slow.
    speed = REF_S / statistics.mean(ref for s in plain for ref in s["refs"])
    probe_speed = REF_S / statistics.mean(probe_refs)
    raw_wall_s = statistics.mean(s["wall_s"] for s in plain)
    if trace:
        metrics = {
            name: statistics.median(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead"] = statistics.mean(s["wall_s"] for s in traced) / raw_wall_s
    else:
        metrics = {
            "wall_s": raw_wall_s * speed,
            "setup_s": statistics.median(wall for _, _, wall in probes) * probe_speed,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
    return {
        "workload": workload,
        "correct": probes_ok and all(s["correct"] for s in sessions),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "raw_wall_s": raw_wall_s,
        "speed": speed,
        "probe_speed": probe_speed,
        "probes_s": [wall for _, _, wall in probes],
        "probe_refs": probe_refs,
        "sessions": sessions,
    }


def environment() -> dict:
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip()
        except OSError:
            revision = "unknown: git not found"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "invocation": INVOCATION,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Every call, probe and reference.py run on one processor: the driver's
    # children inherit this, and the two processors of a shared host speed up
    # and slow down at different times.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "imptables" / "cli.py").is_file():
        sys.exit(f"error: no imptables source under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(w, args.seed, seconds, bool(args.trace), expected) for w in names]
    for result in results:
        if set(result["metrics"]) != set(units):
            sys.exit(
                "error: measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(units))}"
            )
        w = result["workload"]
        for name, value in result["metrics"].items():
            print(f"{w:8s} {name:36s} {value:.6g} {units[name]}")
        print(f"{w:8s} {'raw_wall_s':36s} {result['raw_wall_s']:.6g} s (not scaled)")
        print(
            f"{w:8s} {'error_rate':36s} {result['error_rate']:.6g} "
            f"({result['failed']}/{result['attempted']} calls)"
        )
        record = {
            "environment": environment(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            **result,
        }
        (OUT / f"{w}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    prefix = len(results) > 1
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    (f"{r['workload']}.{name}" if prefix else name): {
                        "value": value,
                        "unit": units[name],
                    }
                    for r in results
                    for name, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
