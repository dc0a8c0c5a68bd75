"""Benchmark of the `gdms` CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/gdms``, and every file the run writes goes under the
checkout's ``.bench_out/``.  Each op of the workload (see ``workloads.py``)
runs in a fresh interpreter, one at a time, and is timed from spawn to exit
with ``os.wait4``, which also gives that child's user+sys time and max RSS.
Passes over the workload repeat until the next one would end after
``--seconds``; every reported metric is the median over passes.

End-to-end metrics (``--trace 0``), each summed over the ops of one pass:

* ``wall_s``: spawn to exit.
* ``setup_s``: spawn to the return of ``load_config``, that is interpreter
  start, ``import gdms.cli`` and schema validation.
* ``cpu_s``: user + sys time of the op processes, BLAS threads included.
* ``peak_rss_mb``: the largest max-RSS of any op process of the pass.

With ``--trace 1`` the passes alternate untraced and traced; the traced ones
wrap every public gdms function from outside (``tracer.py``) and give the
per-layer metrics, and ``trace.overhead_s`` is the traced minus the
untraced median wall time.

Every op's output is checked against the values the theorem forces; an op
fails when it exits non-zero, fails a check, or writes outputs that differ
from its first pass in the run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit, quartiles and sample count, the
fail rate and each failed check by name, the environment (CPUs, BLAS
threads, library versions, load average around each pass) and the result
fingerprints.  ``--smoke`` runs one pass at tiny sizes, for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Every run must exit within 180 s; ops still running at this mark are killed.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_env(env: dict) -> dict:
    """Environment record from a child; also fills the bytecode caches."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "op.py"), "--env"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    record = json.loads(out.stdout)
    if Path(record["gdms_cli"]) != ROOT / "src" / "gdms" / "cli.py":
        raise RuntimeError(f"gdms resolves to {record['gdms_cli']}, not this checkout")
    return record


def fingerprint(outdir: Path) -> str:
    """Hash of every payload; report.json is hashed without its wall time."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("wall_time_s", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(f"{path.relative_to(outdir)}:{hashlib.sha256(data).hexdigest()}\n".encode())
    return h.hexdigest()


def spawn_and_wait(argv: list, log: Path, env: dict, deadline: float):
    """Run a child to exit: (spawn instant, wall s, exit code, its own rusage).

    ``os.wait4`` gives this child's rusage alone; ``RUSAGE_CHILDREN`` would
    give a running maximum of max-RSS over every child so far.
    """
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return t0, wall, code, usage


def run_op(op, cfg_path: Path, outdir: Path, traced: bool, env: dict, deadline: float) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    sidecar = outdir.with_suffix(".sidecar.json")
    sidecar.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "op.py"), "--sidecar", str(sidecar)]
    argv += ["--trace"] if traced else []
    argv += ["--", op.command, "--config", str(cfg_path), "--output-dir", str(outdir)]
    t0, wall, code, usage = spawn_and_wait(argv, outdir.with_suffix(".log"), env, deadline)

    trace = {"spans": [], "import_s": 0.0, "loaded_at": None}
    if sidecar.exists():
        trace = json.loads(sidecar.read_text())
    fails = [] if code == 0 else [f"exit code {code}"]
    fails += workloads.run_check(op, outdir)
    loaded_at = trace["loaded_at"]
    return {
        "op": op.name,
        "exit_code": code,
        "wall_s": wall,
        "setup_s": wall if loaded_at is None else loaded_at - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fingerprint": fingerprint(outdir),
        "failures": fails,
        "trace": trace if traced else None,
    }


def run_pass(ops, order, cfg_paths, traced, env, deadline, run_dir) -> dict:
    load_before = os.getloadavg()
    t0 = time.monotonic()
    results = [
        run_op(ops[i], cfg_paths[i], run_dir / ops[i].name, traced, env, deadline)
        for i in order
    ]
    out = {
        "traced": traced,
        "duration_s": time.monotonic() - t0,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "wall_s": sum(r["wall_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ops": results,
    }
    if traced:
        out["layers"] = tracer.layer_metrics([r["trace"] for r in results])
        for r in results:
            r["trace"] = None  # spans are folded; keep the record small
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _stat_line(name: str, unit: str, values: list[float]) -> str:
    """Median, quartiles, extremes, and the highest percentile with ten samples beyond it."""
    q1, _, q3 = _quartiles(values)
    n = len(values)
    tail = ""
    if n >= 11:
        pct = 100 * (n - 10) // n
        tail = f"  p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return (
        f"  {name:32s} {statistics.median(values):14.6g} {unit:8s} "
        f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  max {max(values):.6g}{tail}  "
        f"n={n}"
    )


def check_fingerprints(passes: list[dict]) -> dict:
    """Mark ops whose outputs differ from their first pass; returns op -> hash."""
    first: dict[str, str] = {}
    for p in passes:
        for r in p["ops"]:
            fp = first.setdefault(r["op"], r["fingerprint"])
            if r["fingerprint"] != fp:
                r["failures"].append("outputs differ from the first pass of this run")
    return first


def compare_with_checkout_record(key: str, prints: dict) -> str:
    """Compare with the first run of this workload in this checkout."""
    path = OUT / "fingerprints.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if key not in record:
        record[key] = prints
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)
        return "first run in this checkout; recorded"
    differ = sorted(op for op in prints if record[key].get(op) != prints[op])
    return "agree with the first run in this checkout" if not differ else (
        "DIFFER from the first run in this checkout: " + ", ".join(differ)
    )


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gdms" / "cli.py").is_file():
        print(f"no gdms sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    deadline = started + HARD_LIMIT_S
    env = child_env()
    record_env = probe_env(env)

    key = args.workload + ("-smoke" if args.smoke else "")
    run_dir = OUT / "runs" / key
    ops = workloads.workload_ops(args.workload, ROOT, smoke=args.smoke)
    cfg_paths = []
    for op in ops:
        path = run_dir / "configs" / f"{op.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(op.config, indent=1, sort_keys=True))
        cfg_paths.append(path)

    rng = random.Random(args.seed)
    kinds = [False, True] if args.trace else [False]
    passes: list[dict] = []
    t_measure = time.monotonic()
    while True:
        order = list(range(len(ops)))
        if args.workload in workloads.SHUFFLED:
            rng.shuffle(order)
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(ops, order, cfg_paths, traced, env, deadline, run_dir))
        if len(passes) < len(kinds):
            continue
        if args.smoke or time.monotonic() > deadline:
            break
        nxt = kinds[len(passes) % len(kinds)]
        est = statistics.median(p["duration_s"] for p in passes if p["traced"] == nxt)
        now = time.monotonic()
        if now - t_measure + est > args.seconds or now + 1.5 * est > deadline:
            break

    prints = check_fingerprints(passes)
    checkout_agreement = compare_with_checkout_record(key, prints)
    op_results = [r for p in passes for r in p["ops"]]
    attempted = len(op_results)
    failed = sum(1 for r in op_results if r["failures"])
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    print(
        f"gdms bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} passes={len(plain)} untraced + {len(traced_passes)} traced"
        + (" (smoke sizes)" if args.smoke else "")
    )
    blas = record_env["blas"]
    print(
        f"env: nproc={record_env['nproc']} affinity={record_env['affinity']} "
        f"blas={blas.get('name')} {blas.get('version')} threads={blas.get('threads')} "
        f"numpy={record_env['numpy']} scipy={record_env['scipy']} "
        f"python={record_env['python']}"
    )
    for i, p in enumerate(passes, 1):
        print(
            f"pass {i}{' traced' if p['traced'] else ''}: wall_s={p['wall_s']:.4f} "
            f"setup_s={p['setup_s']:.4f} cpu_s={p['cpu_s']:.4f} "
            f"peak_rss_mb={p['peak_rss_mb']:.1f} order={[r['op'] for r in p['ops']]} "
            f"load {p['load_before'][0]:.2f} -> {p['load_after'][0]:.2f}"
        )

    print("end-to-end, median over untraced passes (n = samples; pNN only once ten lie beyond it):")
    metrics: dict = {}
    for name, unit in END_TO_END_UNITS.items():
        values = [p[name] for p in plain]
        print(_stat_line(name, unit, values))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(
        f"  {'fail_rate':32s} {failed / attempted:14.6g} {'1':8s} "
        f"({failed} of {attempted} ops failed)"
    )
    if traced_passes:
        overhead = statistics.median(p["wall_s"] for p in traced_passes) - statistics.median(
            p["wall_s"] for p in plain
        )
        for p in traced_passes:
            p["layers"]["trace.overhead_s"] = (overhead, "s", "lower")
        print("per layer, median over traced passes:")
        metrics = {}
        for name, (_, unit, _) in traced_passes[0]["layers"].items():
            values = [p["layers"][name][0] for p in traced_passes]
            print(_stat_line(name, unit, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit}

    print(f"fingerprints ({checkout_agreement}):")
    for op, fp in prints.items():
        print(f"  {op:32s} sha256 {fp}")
    for i, p in enumerate(passes, 1):
        for r in p["ops"]:
            for msg in r["failures"]:
                print(f"FAIL pass {i} {args.workload}/{r['op']}: {msg}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": record_env,
        "passes": passes,
        "fingerprints": prints,
        "fingerprints_vs_checkout": checkout_agreement,
        "metrics": metrics,
    }
    name = f"{key}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
