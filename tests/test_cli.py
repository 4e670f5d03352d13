from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from ragloop.cli import main
from ragloop.synthdata import write_demo_dataset


def _write_config(tmp_path, **extra) -> Path:
    corpus, queries = write_demo_dataset(tmp_path / "data", num_docs=120,
                                         num_queries=10, seed=1)
    lines = {
        "seed_corpus": str(corpus),
        "query_set": str(queries),
        "output_dir": str(tmp_path / "out"),
        "pipeline": "bm25",
        "sample_size": 10,
        "iterations": 1,
        "seed": 4,
        "offline": True,
        "generators": [{"name": "gen-a", "kind": "synthetic",
                        "accuracy": 0.9}],
    }
    lines.update(extra)
    path = tmp_path / "exp.yaml"
    path.write_text(json.dumps(lines))  # valid YAML subset
    return path


def test_cli_synth_writes_dataset(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "demo"), "--docs", "60",
               "--queries", "6", "--seed", "2"])
    assert rc == 0
    assert (tmp_path / "demo" / "corpus.jsonl").is_file()
    assert (tmp_path / "demo" / "queries.jsonl").is_file()
    assert "corpus.jsonl" in capsys.readouterr().out


def test_cli_validate_ok(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_reports_problems(tmp_path, capsys):
    cfg = _write_config(tmp_path, pipeline="warp-drive")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_cli_validate_reports_unreadable_entries(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, generators=[{"kind": "synthetic"}],
        schedule=[{"iterations": "one-two", "generators": ["gen-a"]}])
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("INVALID: ") for line in err)
    assert "generator entry 1 is malformed: KeyError('name')" in err[0]
    assert "schedule entry 1 is malformed" in err[1]


def test_cli_baseline(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["baseline", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["iteration"] == 0


def test_cli_baseline_refuses_a_directory_of_another_config(tmp_path, capsys):
    cfg_a = _write_config(tmp_path).rename(tmp_path / "a.yaml")
    cfg_b = _write_config(tmp_path, seed=5).rename(tmp_path / "b.yaml")
    for first in ("run", "baseline"):
        out = ["--out", str(tmp_path / first)]
        assert main([first, "--config", str(cfg_a), *out]) == 0
        baseline = tmp_path / first / "iterations" / "iter-00"
        before = {p.name: p.read_bytes() for p in baseline.iterdir()}
        capsys.readouterr()
        assert main(["baseline", "--config", str(cfg_b), *out]) == 1
        assert "belongs to a different configuration" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in baseline.iterdir()} == before
        assert main(["resume", "--config", str(cfg_a), *out]) == 0


def test_cli_baseline_records_its_status(tmp_path, stub_server):
    cfg = _write_config(tmp_path)
    manifest = tmp_path / "out" / "manifest.json"
    assert main(["baseline", "--config", str(cfg)]) == 0
    assert json.loads(manifest.read_text())["status"] == "baseline"
    assert main(["resume", "--config", str(cfg)]) == 0
    assert json.loads(manifest.read_text())["status"] == "complete"
    # every generation task of this baseline gets a 404
    down = _write_config(tmp_path / "down", offline=False, retries=0,
                         generators=[{"name": "gen-a", "kind": "remote",
                                      "model": "m",
                                      "endpoint": stub_server.url("/v1/chat")}])
    assert main(["baseline", "--config", str(down)]) == 1
    failed = json.loads((tmp_path / "down" / "out" / "manifest.json").read_text())
    assert failed["status"] == "failed"
    assert "generation tasks failed" in failed["error"]


@pytest.mark.parametrize("damaged, damage, where", [
    ("metrics.json", lambda text: text[:len(text) // 2], "metrics.json:"),
    ("records.jsonl", lambda text: text.replace("\n", '\n{"query_id": \n', 1),
     "records.jsonl:2:"),
    ("additions.jsonl", None, "additions.jsonl:"),
    ("additions.jsonl", lambda text: re.sub(r'"source": \{[^}]*\}, ', "", text, 1),
     "additions.jsonl:1:"),
], ids=["truncated-metrics", "bad-record-line", "missing-additions",
        "addition-without-source"])
def test_cli_resume_names_a_damaged_run_file(tmp_path, capsys, damaged, damage,
                                             where):
    cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "iterations" / "iter-01" / damaged
    if damage is None:
        path.unlink()
    else:
        path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert main(["resume", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: corrupted run file {path.parent}" in err
    assert f"iter-01/{where}" in err and "Traceback" not in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("RagLoopError: corrupted run file")


def test_cli_run_and_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "summary.tsv").is_file()
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "out")]) == 0
    assert "series_accuracy.tsv" in capsys.readouterr().out


def test_cli_overrides_seed_and_out(tmp_path):
    cfg = _write_config(tmp_path)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "other"),
               "--seed", "99"])
    assert rc == 0
    manifest = json.loads((tmp_path / "other" / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_cli_out_is_relative_to_the_current_directory(tmp_path, monkeypatch,
                                                      capsys):
    cfg = _write_config(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", "--config", str(cfg), "--out", "myrun"]) == 0
    assert (work / "myrun" / "manifest.json").is_file()
    assert not (tmp_path / "myrun").exists()
    capsys.readouterr()
    assert main(["report", "--out", "myrun"]) == 0
    assert "series_accuracy.tsv" in capsys.readouterr().out


def test_cli_resume_completes_quietly(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["resume", "--config", str(cfg)]) == 0
    assert "run complete" in capsys.readouterr().out


def test_cli_misinfo_flag(tmp_path):
    cfg = _write_config(tmp_path)
    rc = main(["run", "--config", str(cfg), "--misinfo",
               "--out", str(tmp_path / "mis")])
    assert rc == 0
    assert (tmp_path / "mis" / "injection" / "misinfo.jsonl").is_file()


def test_cli_error_paths(tmp_path, capsys):
    cfg = _write_config(tmp_path, query_set=str(tmp_path / "absent.jsonl"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["report", "--out", str(tmp_path / "nothing-here")]) == 1


def test_cli_bad_input_is_one_line_and_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "absent.yaml")
    assert main(["validate", "--config", missing]) == 1
    assert capsys.readouterr().err == (
        f"INVALID: cannot read config file {missing}: No such file or directory\n")
    assert main(["run", "--config", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:") and missing in err
    assert main(["synth", "--out", str(tmp_path / "demo"), "--docs", "10",
                 "--queries", "50"]) == 1
    assert capsys.readouterr().err == (
        "error: need at least two seed documents per query\n")
    cfg = _write_config(tmp_path, generators=[{"name": "gen-a", "acuracy": 0.2}])
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "INVALID: unknown key 'acuracy' in generator entry 1\n")
