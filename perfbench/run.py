"""Pipeline benchmark: the repro CLI end to end, one workload per run.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run generates the workload's
corpus from ``--seed`` (see ``workloads.py``), computes the expected
output of every command from the seed references (``oracles.py``),
measures the scheduler calibration once into its scratch directory and
pins every command to it (``REPRO_SCHED_PROFILE``), and then runs the
command set below as separate ``python -m repro`` child processes, one
after another on a single client (a closed loop), cycle after cycle
until ``--seconds`` have passed:

    setup           translate --out on a one-line corpus (fixed cost)
    infer           infer CORPUS
    infer_auto      infer CORPUS --jobs auto
    translate       translate CORPUS --out DIR
    translate_auto  translate CORPUS --out DIR --jobs auto
    validate        validate CORPUS --schema S  (S: JSON Schema of the oracle type)
    skeleton        skeleton CORPUS

Every command's exit code and output are checked against its oracle; a
mismatch is a failed operation.  Wall times are medians over the cycles;
peak memory is the child's own ``ru_maxrss`` from ``os.wait4``.

With ``--trace 1`` the cycles alternate untraced and traced command
sets.  A traced command runs ``repro.cli.main`` under ``tracer.py`` in a
fresh interpreter, and the per-layer metrics are medians over the traced
cycles of each metric summed over one cycle's commands.

Lines before the last describe the run (environment stamp, corpus,
per-command figures, per-command layer breakdown when tracing); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

COMMANDS = ("setup", "infer", "infer_auto", "translate", "translate_auto",
            "validate", "skeleton")
THROUGHPUT = {
    "infer": "infer_mb_s",
    "infer_auto": "infer_auto_mb_s",
    "translate": "translate_mb_s",
    "translate_auto": "translate_auto_mb_s",
    "validate": "validate_mb_s",
    "skeleton": "skeleton_mb_s",
}
MEMORY = {
    "infer": "infer_rss_mb",
    "translate": "translate_rss_mb",
    "validate": "validate_rss_mb",
    "skeleton": "skeleton_rss_mb",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
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
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "zstandard": importlib.util.find_spec("zstandard") is not None,
        "platform": platform.platform(),
    }


class Runner:
    """Spawns one CLI command at a time and checks it against the oracle."""

    def __init__(self, launcher, run_dir: Path, corpus, first: Path, schema: Path,
                 oracle):
        self.launcher = launcher
        self.oracle = oracle
        self.out_dir = run_dir / "out"
        self.stdout_path = run_dir / "stdout.txt"
        self.stderr_path = run_dir / "stderr.txt"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(SRC),
            REPRO_SCHED_PROFILE=str(run_dir / "sched.json"),
            XDG_CACHE_HOME=str(run_dir / "cache"),
        )
        self.env = env
        data, out = str(corpus.path), str(self.out_dir)
        self.arguments = {
            "setup": ["translate", str(first), "--out", out],
            "infer": ["infer", data],
            "infer_auto": ["infer", data, "--jobs", "auto"],
            "translate": ["translate", data, "--out", out],
            "translate_auto": ["translate", data, "--out", out, "--jobs", "auto"],
            "validate": ["validate", data, "--schema", str(schema)],
            "skeleton": ["skeleton", data],
        }
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, command: str, spans: Path | None = None) -> dict:
        """Run one command; returns its wall time, peak RSS and verdict."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                    f"{command}-{self.attempted}", "--"]
        request = {"argv": argv + self.arguments[command], "env": self.env,
                   "stdout": str(self.stdout_path), "stderr": str(self.stderr_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        stdout = self.stdout_path.read_text(encoding="utf-8", errors="replace")
        ok = self.oracle.check(command, reply["returncode"], stdout, self.out_dir)
        self.attempted += 1
        if not ok:
            self.failed += 1
            stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
            self.failures.append({"command": command, "exit": reply["returncode"],
                                  "stderr": stderr[-400:]})
        return {"wall": reply["wall"], "rss_mb": reply["maxrss_kb"] / 1024}


def cycle(runner: Runner, traced_dir: Path | None = None) -> dict:
    """One pass over the command set, optionally traced."""
    results = {}
    for command in COMMANDS:
        spans = None if traced_dir is None else traced_dir / f"{command}.json"
        results[command] = runner.run(command, spans)
        if spans is not None:
            results[command]["spans"] = json.loads(spans.read_text())
    return results


def end_to_end(cycles: list, corpus, runner: Runner) -> dict:
    megabytes = corpus.raw_bytes / 1e6

    def median(command, key):
        return statistics.median(c[command][key] for c in cycles)

    metrics = {"setup_s": (median("setup", "wall"), "s")}
    for command, name in THROUGHPUT.items():
        metrics[name] = (megabytes / median(command, "wall"), "MB/s")
    for command, name in MEMORY.items():
        metrics[name] = (median(command, "rss_mb"), "MB")
    metrics["ok_ratio"] = (
        (runner.attempted - runner.failed) / runner.attempted, "ratio")
    return metrics


def per_layer(traced: list, untraced: list, calibration_s: float) -> tuple:
    """Per-layer metrics (medians over traced cycles) and the per-command
    breakdown of the last traced cycle."""
    sums, breakdown = [], {}
    for results in traced:
        total: dict = {}
        for command, result in results.items():
            layer = tracer.command_metrics(result["spans"], result["wall"])
            breakdown[command] = {"wall_s": result["wall"], **layer}
            for name, value in layer["metrics"].items():
                total[name] = total.get(name, 0) + value
        sums.append(tracer.cycle_metrics(total))
    metrics = {name: statistics.median(s[name] for s in sums) for name in sums[0]}

    def cycle_wall(results):
        return sum(r["wall"] for r in results.values())

    metrics["trace.overhead_s"] = (
        statistics.median(cycle_wall(c) for c in traced)
        - statistics.median(cycle_wall(c) for c in untraced))
    metrics["inference.calibration_s"] = calibration_s
    return metrics, breakdown


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(args, launcher, run_dir: Path) -> dict:
    from oracles import Oracle
    from repro.inference.calibration import measure_calibration, save_calibration

    corpus = workloads.generate(args.workload, args.seed, run_dir)
    first = workloads.first_document(corpus, run_dir)
    schema = run_dir / "schema.json"
    oracle = Oracle(corpus.lines, schema, run_dir)
    start = time.perf_counter()
    save_calibration(measure_calibration(), run_dir / "sched.json")
    calibration_s = time.perf_counter() - start

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment_stamp(),
        "corpus": {
            "documents": corpus.documents, "raw_bytes": corpus.raw_bytes,
            "file_bytes": corpus.file_bytes, "gzip_members": corpus.members,
            "line_cache_share": round(workloads.line_cache_share(corpus.lines), 4),
        },
    }))

    runner = Runner(launcher, run_dir, corpus, first, schema, oracle)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(cycle(runner))
        if args.trace:
            traced_dir = run_dir / f"trace-{len(traced)}"
            traced_dir.mkdir()
            traced.append(cycle(runner, traced_dir))
        if time.perf_counter() >= deadline:
            break

    for command in COMMANDS:
        walls = [c[command]["wall"] for c in untraced]
        print(json.dumps({
            "command": command, "samples": len(walls),
            "median_s": round(statistics.median(walls), 4),
            "walls_s": [round(w, 4) for w in walls],
            "rss_mb": round(statistics.median(c[command]["rss_mb"] for c in untraced), 1),
        }))
    for failure in runner.failures:
        print(json.dumps({"failure": failure}))

    if args.trace:
        metrics, breakdown = per_layer(traced, untraced, calibration_s)
        for command, layer in breakdown.items():
            print(json.dumps({"traced_command": command, **layer}))
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as handle:
            for results in traced:
                for command, result in results.items():
                    handle.write(json.dumps(result["spans"]) + "\n")
        reported = {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in end_to_end(untraced, corpus, runner).items()}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": reported,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Started first, while this process is still small (see launcher.py).
    launcher = subprocess.Popen(
        [sys.executable, str(BENCH / "launcher.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        # A fresh checkout has no bytecode caches; writing them here keeps
        # that one-off cost out of the first timed command.
        compileall.compile_dir(str(SRC), quiet=1)
        result = measure(args, launcher, run_dir)
    finally:
        launcher.stdin.close()
        launcher.wait()
        launcher.stdout.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
