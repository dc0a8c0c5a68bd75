"""Self-test of the benchmark itself (not of gdms).

    python3 bench/selftest.py

* the workload and metric names the code emits match ``BENCHMARK.json``;
* every output check fails on a report doctored to break what it checks;
* a smoke run of every workload, traced and untraced, at tiny sizes runs
  every op to exit code 0 and prints a well-formed result line;
* in a directory that holds only ``BENCHMARK.json`` and ``bench/`` the
  command exits non-zero without printing a result.

Scratch files go under the checkout's ``.bench_out/selftest``.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class NamesMatchSpec(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(wl.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END_UNITS
        )

    def test_per_layer(self):
        want = {name: (unit, better) for name, (_, unit, better) in tracer.layer_metrics([]).items()}
        got = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
        self.assertEqual(got, want)

    def test_command(self):
        self.assertEqual(SPEC["command"], ["python3", "bench/run.py"])


def _doctor(report: dict, path: str, value) -> dict:
    out = copy.deepcopy(report)
    node = out
    keys = path.split("/")
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return out


class ChecksCatchDoctoredReports(unittest.TestCase):
    """Each check passes a report that holds and fails each doctored copy."""

    def assert_check(self, check, cfg, good, doctored, outdir=Path(".")):
        self.assertEqual(check(cfg, good, outdir), [])
        for path, value in doctored:
            with self.subTest(path=path, value=value):
                self.assertTrue(check(cfg, _doctor(good, path, value), outdir))

    def test_free_kernel(self):
        good = {"results": {
            "delta_full": {"kind": "exact", "value": 1.0},
            "delta_kernel": {"kind": "estimate", "value": 0.868, "bracket": [0.859, 0.877]},
            "divergence_at_half": {"tail_nondecreasing": True},
        }}
        self.assert_check(wl.check_kernel_non_amenable, {}, good, [
            ("results/delta_kernel/bracket", [0.40, 0.45]),
            ("results/delta_kernel/bracket", [0.45, 0.6]),
            ("results/delta_kernel/bracket", [0.9, 1.02]),
            ("results/delta_full/value", 1.0 + 1e-9),
            ("results/divergence_at_half/tail_nondecreasing", False),
        ])

    def test_kernel_amenable(self):
        good = {"results": {
            "delta_full": {"kind": "exact", "value": 1.0},
            "delta_kernel": {"kind": "estimate", "value": 0.999, "bracket": [0.99, 1.01]},
        }}
        self.assert_check(wl.check_kernel_amenable, {}, good, [
            ("results/delta_kernel/bracket", [0.9753906250000001, 0.9796875]),
            ("results/delta_kernel", {"kind": "exact", "value": 0.98}),
        ])

    def test_amenability(self):
        good = {"results": {
            "verdict": wl.AMENABLE, "inconsistent": False,
            "dichotomy": {"rho": [0.83, 0.94, 0.997]},
        }}
        self.assert_check(wl.check_amenable_ladder, {}, good, [
            ("results/verdict", wl.NON_AMENABLE),
            ("results/verdict", "INCONSISTENT"),
            ("results/inconsistent", True),
            ("results/dichotomy/rho", [0.94, 0.83]),
            ("results/dichotomy/rho", [0.94, 1.0 + 1e-8]),
        ])
        self.assertTrue(wl.check_non_amenable({}, good, Path(".")))

    def test_delta_full(self):
        good = {"results": {"delta_full": {"kind": "exact", "value": 1.0}}}
        self.assert_check(wl.check_delta_full, {}, good, [
            ("results/delta_full/value", 0.999),
        ])

    def test_full_render(self):
        cfg = {"gdms": {"d": 2}, "params": {"depth": 3}}
        outdir = SCRATCH / "render"
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "points.csv").write_text("x,word\n" + "0.5,g1\n" * 36)
        good = {"results": {"points": 36}}
        self.assert_check(wl.check_full_render, cfg, good, [("results/points", 35)], outdir)
        (outdir / "points.csv").write_text("x,word\n" + "0.5,g1\n" * 35)
        self.assertTrue(wl.check_full_render(cfg, good, outdir))

    def test_induced_render(self):
        good = {"results": {"induced_bowen_root": {"kind": "exact", "value": 0.41}}}
        self.assert_check(wl.check_induced_render, {}, good, [
            ("results/induced_bowen_root/value", 1.0 + 1e-9),
        ])

    def test_symmetry(self):
        good = {"results": {"max_rel_asymmetry": 0.0}}
        self.assert_check(wl.check_symmetry, {}, good, [
            ("results/max_rel_asymmetry", 1e-9),
        ])

    def test_tree_walk(self):
        cfg = {"gdms": {"d": 2}, "quotient": {"kill": []}}
        good = {"results": {"final_estimate": {
            "kind": "estimate", "value": 0.86, "bracket": [0.85, 1.0],
        }}}
        self.assert_check(wl.check_tree_walk, cfg, good, [
            ("results/final_estimate/bracket", [math.sqrt(3) / 2 + 1e-6, 1.0]),
        ])

    def test_unreadable_or_wrong_report(self):
        op = wl.workload_ops("free-kernel", ROOT)[0]
        empty = SCRATCH / "empty"
        shutil.rmtree(empty, ignore_errors=True)
        empty.mkdir(parents=True)
        self.assertTrue(wl.run_check(op, empty))
        (empty / "report.json").write_text(json.dumps({
            "command": "amenability",
            "results": {
                "delta_full": {"kind": "exact", "value": 1.0},
                "delta_kernel": {"kind": "estimate", "value": 0.868, "bracket": [0.859, 0.877]},
                "divergence_at_half": {"tail_nondecreasing": True},
            },
        }))
        self.assertEqual(len(wl.run_check(op, empty)), 1)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_runs(self):
        want = {
            0: [m["name"] for m in SPEC["end_to_end"]],
            1: [m["name"] for m in SPEC["per_layer"]],
        }
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertEqual(list(result["metrics"]), want[trace])
                    self.assertGreaterEqual(result["attempted"], 1)
                    record = json.loads(
                        (ROOT / ".bench_out" / "results"
                         / f"{workload}-smoke-seed7-trace{trace}.json").read_text()
                    )
                    codes = {r["op"]: r["exit_code"]
                             for p in record["passes"] for r in p["ops"]}
                    self.assertEqual(set(codes.values()), {0}, codes)
                    ops = {op.name for op in wl.workload_ops(workload, ROOT)}
                    self.assertEqual(set(codes), ops)


class BareDirectory(unittest.TestCase):
    def test_fails_without_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = _bench("--workload", "free-kernel", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
