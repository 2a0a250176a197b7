"""Bench payloads carry their environment, and the gate reads it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import benchmarks.conftest as bench_conftest
from repro.engine.hostinfo import available_cpus

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _check_script():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        REPO_ROOT / "scripts" / "check_bench_regression.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hotpaths(path: Path, env: dict | None) -> Path:
    payload = {"bench": "hotpaths", "schema": 1, "smoke": False,
               "som_batch": {"speedup": 3.0, "new_seconds": 0.1}}
    if env is not None:
        payload["env"] = env
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestEnvStamp:
    def test_payload_carries_env_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
        path = bench_conftest.write_bench_json("shape", {"value": 1})
        written = json.loads(path.read_text(encoding="utf-8"))
        assert written["value"] == 1
        env = written["env"]
        assert env["available_cpus"] == available_cpus()
        assert {"threads", "threads_env", "name"} <= set(env["blas"])
        assert {"python", "numpy", "git_sha", "bytecode"} <= set(env)


class TestEnvMismatchWarning:
    ENV = {"python": "3.11.7", "blas": {"threads": 2}, "git_sha": "a"}

    def test_lists_differing_keys_and_keeps_exit_status(
        self, tmp_path, capsys
    ):
        script = _check_script()
        fresh_env = {**self.ENV, "blas": {"threads": 1}, "git_sha": "b"}
        status = script.main([
            "--baseline", str(_hotpaths(tmp_path / "old.json", self.ENV)),
            "--fresh", str(_hotpaths(tmp_path / "new.json", fresh_env)),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "WARNING:   blas.threads: 2 -> 1" in out
        assert "git_sha" not in out

    def test_silent_when_envs_match(self, tmp_path, capsys):
        script = _check_script()
        status = script.main([
            "--baseline", str(_hotpaths(tmp_path / "old.json", self.ENV)),
            "--fresh", str(_hotpaths(tmp_path / "new.json", dict(self.ENV))),
        ])
        assert status == 0
        assert "WARNING" not in capsys.readouterr().out

    def test_missing_env_block_is_named(self, tmp_path, capsys):
        script = _check_script()
        script.main([
            "--baseline", str(_hotpaths(tmp_path / "old.json", None)),
            "--fresh", str(_hotpaths(tmp_path / "new.json", self.ENV)),
        ])
        assert "no env block in the baseline run" in capsys.readouterr().out
