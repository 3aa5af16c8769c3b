"""Smoke tests: the command-line scripts run to completion."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_markov_audit_runs_clean():
    proc = run_script("markov_audit.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "5 trials, 0 failure(s)" in proc.stdout


def test_bm_sweep_runs():
    proc = run_script("bm_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert "(1, 1, 1, 1)" in proc.stdout


def test_resolution_table_runs():
    proc = run_script("resolution_table.py")
    assert proc.returncode == 0, proc.stderr
    # The main knot: thinness predicts 7 ranks, its homology has 15.
    assert "non-thin (7 predicted vs 15 actual)" in proc.stdout
    assert proc.stdout.count("\n") == 2 + 2 * 7


def load_script(name):
    """Import ``scripts/<name>.py`` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_timing_runs(capsys):
    scan_timing = load_script("scan_timing")
    assert scan_timing.compare(seed=1, knots=5) == 0
    assert capsys.readouterr().out.startswith("5 knots, seed 1: key ")


def test_cli_timing_runs(capsys):
    cli_timing = load_script("cli_timing")
    load = cli_timing.ResultCache.load
    per_query = cli_timing.report(seed=1, groups=3, passes=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("21 queries x 1 passes, seed 1: cli.main ")
    assert [line.split()[0] for line in lines[1:]] == [*cli_timing.PARTS, "other"]
    assert per_query["main"] > 0
    assert cli_timing.ResultCache.load is load  # the wrappers are gone


def test_seifert_timing_runs(capsys):
    seifert_timing = load_script("seifert_timing")
    name, seconds = seifert_timing.report(seed=1, rows=256)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(seifert_timing.shapes(1, 256)) + 1
    assert lines[-1] == f"slowest at 256 rows, seed 1: {name}, {seconds:.4f} s"


def test_parity_against_its_own_tree_finds_no_mismatch(capsys):
    parity = load_script("parity")
    counts = parity.compare(ROOT, parity.SEED, sizes=(60, 20, 30))
    assert counts == {"canonical_closure_key": 0, "cli": 0, "cache": 0}
    assert capsys.readouterr().out.splitlines() == [
        "canonical_closure_key: 0 mismatches in 60 inputs",
        "cli: 0 mismatches in 20 inputs",
        "cache: 0 mismatches in 30 inputs",
    ]


def test_parity_mismatch_report_stays_short(capsys, monkeypatch):
    parity = load_script("parity")
    main = parity.knotbound.cli.main

    def noisy(argv):
        print("x" * 10_000)
        return main(argv)

    # Only this tree's modules change; the base is imported under another name.
    monkeypatch.setattr(parity.knotbound.cli, "main", noisy)
    monkeypatch.setattr(parity.knotbound.cache.ResultCache, "records", lambda self: [])
    counts = parity.compare(ROOT, parity.SEED, sizes=(0, 20, 30))
    assert counts["cli"] == 20 and counts["cache"] > 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("cli: 20 mismatches in 20 inputs; first: input 0, \"xxx")
    assert lines[2].startswith(f"cache: {counts['cache']} mismatches in 30 inputs; first: input ")
    assert max(map(len, lines)) < 2 * parity.CLIP + 100
