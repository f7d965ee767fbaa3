"""Tests of the pipeline benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import gzip
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(run.ROOT)


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_self_times_add_up_to_the_command_wall():
    t = tracer.Tracer("test")

    def leaf():
        time.sleep(0.002)

    def recursive(depth):
        if depth:
            t.call("types.add_type", True, recursive, (depth - 1,), {})
        leaf()

    def outer():
        for _ in range(3):
            t.call("types.add_type", True, recursive, (2,), {})
        time.sleep(0.003)

    t.span("translation.translate_report_path", outer)
    t.finish()
    record = t.record()
    wall = record["nodes"][0]["total"] + 0.05  # interpreter start and exit
    result = tracer.command_metrics(record, wall)

    assert sum(result["self_s"].values()) == pytest.approx(wall)
    assert result["self_s"]["cli"] == pytest.approx(0.05, abs=0.01)
    # Recursive calls are timed by the outermost call only.
    assert result["metrics"]["inference.docs"] == 3
    assert result["metrics"]["types.merge_s"] >= 0.018
    assert result["metrics"]["translation.pass_self_s"] == pytest.approx(
        result["self_s"]["translation"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_a_function_of_the_seed(tmp_path, name):
    def generate(directory, seed):
        (tmp_path / directory).mkdir()
        return workloads.generate(name, seed, tmp_path / directory, 40)

    first, second, other = generate("a", 3), generate("b", 3), generate("c", 4)
    assert first.path.read_bytes() == second.path.read_bytes()
    assert first.lines != other.lines
    assert first.documents == 40
    if name == "nested-gz":
        assert first.members == workloads.GZIP_MEMBERS
        assert gzip.decompress(first.path.read_bytes()) == "".join(
            line + "\n" for line in first.lines).encode()
    else:
        assert first.raw_bytes == first.file_bytes


def _cli(argv) -> tuple:
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_oracle_accepts_the_cli_and_rejects_a_difference(tmp_path):
    corpus = workloads.generate("tweets", 5, tmp_path, 60)
    schema = tmp_path / "schema.json"
    oracle = oracles.Oracle(corpus.lines, schema, tmp_path)
    data, out = str(corpus.path), tmp_path / "out"

    code, stdout = _cli(["infer", data])
    assert oracle.check("infer", code, stdout, out)
    assert not oracle.check("infer", 1, stdout, out)
    assert not oracle.check("infer", code, stdout.replace("Str", "Int", 1), out)

    code, stdout = _cli(["skeleton", data])
    assert oracle.check("skeleton", code, stdout, out)

    code, stdout = _cli(["validate", data, "--schema", str(schema)])
    assert oracle.check("validate", code, stdout, out)

    code, stdout = _cli(["translate", data, "--out", str(out)])
    assert oracle.check("translate", code, stdout, out)
    rows = out / "rows.avro"
    rows.write_bytes(rows.read_bytes()[:-1])
    assert not oracle.check("translate", code, stdout, out)

    first = workloads.first_document(corpus, tmp_path)
    shutil.rmtree(out)
    code, stdout = _cli(["translate", str(first), "--out", str(out)])
    assert oracle.check("setup", code, stdout, out)


def _run(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setitem(workloads.DOCUMENTS, workload, 30)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    result = _run(monkeypatch, "tweets", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.COMMANDS)
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["flat", "nested-gz"])
def test_traced_run_reports_every_per_layer_metric(monkeypatch, workload):
    result = _run(monkeypatch, workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert _units(result) == _declared("per_layer")
    assert metrics["translation.delegated_docs"] == 0
    assert metrics["jsonschema.validate_docs"] == 30
    if workload == "nested-gz":
        assert metrics["datasets.decompress_s"] > 0
        assert metrics["datasets.decompressed_mb"] > 0
    else:
        assert metrics["datasets.decompress_s"] == 0
        assert metrics["datasets.lines"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
