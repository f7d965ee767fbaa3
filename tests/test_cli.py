"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import github_events, ndjson_lines


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text("\n".join(ndjson_lines(github_events(40, seed=1))) + "\n")
    return str(path)


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        '{"type": "object", "required": ["type", "actor"],'
        ' "properties": {"public": {"const": true}}}'
    )
    return str(path)


class TestInfer:
    def test_type_output(self, data_file, capsys):
        assert main(["infer", data_file]) == 0
        out = capsys.readouterr().out
        assert "40 documents" in out
        assert "{" in out and "actor" in out

    def test_label_equivalence(self, data_file, capsys):
        assert main(["infer", data_file, "--equivalence", "label"]) == 0
        out = capsys.readouterr().out
        assert " + " in out  # union of event variants

    def test_jsonschema_output(self, data_file, capsys):
        assert main(["infer", data_file, "--format", "jsonschema"]) == 0
        out = capsys.readouterr().out
        assert '"type": "object"' in out

    def test_typescript_output(self, data_file, capsys):
        assert main(["infer", data_file, "--format", "typescript", "--name", "Ev"]) == 0
        out = capsys.readouterr().out
        assert "interface Ev {" in out

    def test_swift_union_error_is_clean(self, tmp_path, capsys):
        path = tmp_path / "mixed.ndjson"
        path.write_text('{"v": 1}\n{"v": "x"}\n')
        assert main(["infer", str(path), "--format", "swift"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_routes_through_the_adaptive_scheduler(self, data_file, capsys):
        """--jobs N on a small corpus must produce the serial output
        (the scheduler falls back rather than paying for a pool)."""
        assert main(["infer", data_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["infer", data_file, "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial_out
        assert main(["infer", data_file, "--jobs", "auto", "--shared-memory"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_jobs_rejects_non_numeric_values(self, data_file, capsys):
        with pytest.raises(SystemExit):
            main(["infer", data_file, "--jobs", "fast"])
        with pytest.raises(SystemExit):
            main(["infer", data_file, "--jobs", "0"])

    def test_jobs_help_documents_the_heuristic(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = subparsers.choices["infer"].format_help()
        # argparse wraps help across lines; normalise before asserting.
        flat = " ".join(help_text.split())
        assert "adaptive scheduler" in flat
        assert "falls back to the serial fold" in flat
        assert "mmap" in flat


class TestValidate:
    def test_all_valid(self, data_file, schema_file, capsys):
        assert main(["validate", data_file, "--schema", schema_file]) == 0
        assert "40/40 valid" in capsys.readouterr().out

    def test_invalid_counted_in_exit_code(self, tmp_path, schema_file, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type": "x", "actor": {}}\n{"nope": 1}\n{"public": false}\n')
        code = main(["validate", str(path), "--schema", schema_file])
        assert code == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "1/3 valid" in out

    def test_missing_schema_file(self, data_file, capsys):
        assert main(["validate", data_file, "--schema", "/nope.json"]) == 2


class TestSkeleton:
    def test_structures_printed(self, data_file, capsys):
        assert main(["skeleton", data_file, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "skeleton of order 3" in out
        assert "structure #0" in out
        assert "document coverage" in out


class TestTranslate:
    def test_size_report(self, data_file, capsys):
        assert main(["translate", data_file]) == 0
        out = capsys.readouterr().out
        assert "columnar bytes" in out
        assert "typed columns" in out

    def test_engines_print_identical_reports(self, data_file, capsys):
        assert main(["translate", data_file]) == 0
        stream_out = capsys.readouterr().out
        assert main(["translate", data_file, "--engine", "dom"]) == 0
        assert capsys.readouterr().out == stream_out

    def test_out_with_dom_engine_rejected_before_translating(
        self, data_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "artifacts"
        code = main(
            ["translate", data_file, "--engine", "dom", "--out", str(out_dir)]
        )
        assert code == 2
        captured = capsys.readouterr()
        # Rejected upfront: no report printed, no artifacts written.
        assert captured.out == ""
        assert "--out requires" in captured.err
        assert not out_dir.exists()

    def test_out_writes_artifacts(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["translate", data_file, "--out", str(out_dir)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (out_dir / "rows.avro").exists()
        assert (out_dir / "columns.json").exists()
        assert (out_dir / "schema.txt").exists()

    def test_failed_out_leaves_dir_untouched(self, tmp_path, capsys):
        # A malformed line deep in the corpus fails the run after rows
        # started streaming: nothing may land in DIR, not even an empty
        # rows.avro, and no staging directory may be left behind.
        lines = [f'{{"id": {i}, "name": "n{i}"}}' for i in range(3000)]
        lines[2000] = '{"id": 2000, "name": '
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("kept")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["translate", str(path), "--out", str(out_dir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_failed_out_removes_the_dirs_it_created(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"id": 1}\n{"id": \n', encoding="utf-8")
        out_dir = tmp_path / "new" / "artifacts"
        assert main(["translate", str(path), "--out", str(out_dir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_out_current_directory(self, data_file, tmp_path, monkeypatch, capsys):
        # Staging happens inside DIR itself, so DIR's parent is never
        # written to and the artifacts never cross a filesystem.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["translate", data_file, "--out", "."]) == 0
        assert "wrote" in capsys.readouterr().out
        assert sorted(p.name for p in work.iterdir()) == [
            "columns.json",
            "rows.avro",
            "schema.txt",
        ]

    def test_out_under_read_only_parent(self, data_file, tmp_path, capsys):
        import os

        parent = tmp_path / "locked"
        out_dir = parent / "artifacts"
        out_dir.mkdir(parents=True)
        parent.chmod(0o555)
        try:
            if os.access(parent, os.W_OK):
                pytest.skip("permissions are not enforced for this user")
            assert main(["translate", data_file, "--out", str(out_dir)]) == 0
            assert sorted(p.name for p in out_dir.iterdir()) == [
                "columns.json",
                "rows.avro",
                "schema.txt",
            ]
        finally:
            parent.chmod(0o755)
        capsys.readouterr()

    def test_stdin_and_file_write_identical_artifacts(
        self, data_file, tmp_path, monkeypatch, capsys
    ):
        import io

        from repro.translation.stream import StreamTranslator

        translators = []
        original = StreamTranslator.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            translators.append(self)

        monkeypatch.setattr(StreamTranslator, "__init__", spy)
        with open(data_file, encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        from_stdin = tmp_path / "A"
        from_file = tmp_path / "B"
        assert main(["translate", "-", "--out", str(from_stdin)]) == 0
        assert main(["translate", data_file, "--out", str(from_file)]) == 0
        capsys.readouterr()
        for name in ("rows.avro", "columns.json", "schema.txt"):
            assert (from_stdin / name).read_bytes() == (
                from_file / name
            ).read_bytes()
        # Both sources ran the stream lane, and no document left it.
        assert len(translators) == 2
        assert [t.delegated for t in translators] == [0, 0]


class TestMatrix:
    def test_matrix_printed(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "union types" in out and "JSound" in out


class TestStdin:
    def test_dash_reads_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"a": 1}\n{"a": 2}\n'))
        assert main(["infer", "-"]) == 0
        assert "{a: Int}" in capsys.readouterr().out
