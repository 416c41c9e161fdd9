"""fracobs benchmark: drive the CLI as a user does and report JSON metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fracobs checkout. Each CLI command runs in a
fresh process (perfbench/child.py), one at a time: a closed loop with one
client. The workload's command sequence repeats until S seconds have
passed, at least once; each metric is the median over sequences.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 wraps the public functions of the six fracobs modules from the
benchmark's side (perfbench/tracer.py), reports the per-layer metrics, and
fails when a span the workload must exercise records no call.

Work files go to a temporary directory under .bench_build/perfbench/ in
the checkout and are removed at the end; a full report with provenance,
the CLI's sha256 lines and the layer attribution stays in
.bench_build/perfbench/reports/. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, Op, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# set-up samples taken by processes that stop after loading the config;
# every command process adds one more
SETUP_PROBES = 3
# a run ends within this many seconds; no sequence starts that would not fit
RUN_LIMIT_S = 170.0
# one process, one client: keep BLAS to one thread as well
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("omega_error", "L2sq"),
)
_SELF = (
    "fraccalc.mlf_values", "fraccalc.ml_product_matrix", "fraccalc.caputo_values",
    "hum.assemble_rhs", "system.generate_measurements", "system.output_matrix",
    "hum.assemble_gram", "hum.solve_reconstruction", "hum.eigh",
    "system.MeasurementRecord.to_csv", "system.MeasurementRecord.from_csv",
    "hum.ReconstructionResult.write_csv", "hum.omega_error", "hum.residual_against",
    "observability.test_gradient_strategic",
)
_CALLS = (
    "fraccalc.mlf_values", "hum.assemble_gram", "hum.eigh", "spectral.grad_coupling",
    "spectral.eigenpairs",
)
_COMMANDS = ("simulate", "reconstruct", "sweep-sensor", "check-strategic")
_BANDS = tuple(
    f"{band}.a{alpha}" for band in ("small", "gap", "large") for alpha in (0.3, 0.5, 0.84, 0.95)
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name in _SELF)
    + tuple((f"{name}.calls", "count") for name in _CALLS)
    + (
        ("fraccalc.mlf_values.points", "count"),
        ("fraccalc.mlf_values.repeat_ratio", "ratio"),
        ("hum.reconstruct.iterations", "count"),
        ("cli.output_bytes", "bytes"),
    )
    + tuple((f"fraccalc.mlf_values.pts_per_s.{band}", "1/s") for band in _BANDS)
    + tuple((f"cli.{command}.wall_s", "s") for command in _COMMANDS)
    + (("trace.wall_s", "s"), ("trace.bookkeeping_s", "s"), ("fail_ratio", "ratio"))
)


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, root: str, work: str, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def child(self, mode: str, config: str | None = None, trace: bool = False,
              cli_args: tuple[str, ...] = ()) -> tuple[int | None, str, dict, float]:
        """Run one child; return (exit code or None on timeout, stdout, report, spawn time)."""
        self.count += 1
        report_path = os.path.join(self.work, f"child{self.count}.json")
        argv = [sys.executable, CHILD, mode, "--report", report_path]
        if config:
            argv += ["--config", config]
        if trace:
            argv.append("--trace")
        if cli_args:
            argv += ["--", *cli_args]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
            return None, out, {}, spawned
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        report = {}
        if os.path.isfile(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        return proc.returncode, proc.stdout, report, spawned


def source_digest(root: str) -> str:
    """sha256 over the package sources, standing in for a commit id outside git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "fracobs", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def run_sequence(runner: Runner, workload, config: str, out: str, trace: bool) -> dict:
    """The workload's commands in order, each in a fresh process."""
    os.makedirs(out)
    outcomes, setups, walls, rss, traces, sha_lines = [], [], [], [], [], []
    for template in workload.commands:
        args = tuple(part.format(config=config, out=out) for part in template)
        code, stdout, report, spawned = runner.child("run", config, trace, args)
        outcomes.append(Outcome(args[0], code, stdout, out))
        sha_lines += [line.replace(out, "<out>") for line in stdout.splitlines()
                      if "sha256" in line]
        if "ready" in report:
            setups.append(report["ready"] - spawned)
        if "wall_s" in report:
            walls.append(report["wall_s"])
            rss.append(report["maxrss_kb"] / 1024.0)
        if "trace" in report:
            traces.append(report["trace"])
        if code is None:
            break
    complete = len(outcomes) == len(workload.commands) and len(walls) == len(outcomes)
    if complete:
        ops, error = workload.check(outcomes)
    else:
        ops, error = [Op(o.command, False, "did not finish") for o in outcomes], None
        ops += [Op(t[0], False, "not started") for t in workload.commands[len(outcomes):]]
    return {
        "ops": ops, "omega_error": error, "setups": setups, "wall_s": sum(walls),
        "peak_rss_mb": max(rss, default=0.0), "traces": traces, "sha256": sha_lines,
        "output_bytes": dir_bytes(out), "complete": complete,
    }


def layer_metrics(seq: dict) -> tuple[dict, dict]:
    """Per-layer numbers of one traced sequence, and its self-time attribution."""
    spans: dict[str, dict] = {}
    points = distinct = iterations = 0
    bookkeeping = 0.0
    for tr in seq["traces"]:
        for name, s in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        points += tr["mlf_points"]
        distinct += tr["mlf_distinct"]
        iterations += tr["reconstruct_iterations"]
        bookkeeping += tr["bookkeeping_s"]
    unseen = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {f"{name}.self_s": spans.get(name, unseen)["self_s"] for name in _SELF}
    values.update({f"{name}.calls": spans.get(name, unseen)["calls"] for name in _CALLS})
    values.update({f"cli.{c}.wall_s": spans.get(f"cli.{c}", unseen)["total_s"]
                   for c in _COMMANDS})
    values.update({
        "fraccalc.mlf_values.points": points,
        "fraccalc.mlf_values.repeat_ratio": points / distinct if distinct else 0.0,
        "hum.reconstruct.iterations": iterations,
        "cli.output_bytes": seq["output_bytes"],
        "trace.wall_s": seq["wall_s"],
        "trace.bookkeeping_s": bookkeeping,
    })
    wall = seq["wall_s"] or float("inf")  # zero only when no command finished
    attribution = {name: s["self_s"] / wall for name, s in spans.items() if s["calls"]}
    attribution["(outside spans)"] = (
        wall - sum(s["self_s"] for s in spans.values()) - bookkeeping
    ) / wall
    attribution["(tracer bookkeeping)"] = bookkeeping / wall
    attribution = dict(sorted(attribution.items(), key=lambda kv: -kv[1]))
    calls = {name: s["calls"] for name, s in spans.items()}
    return values, {"self_share_of_wall": attribution, "calls": calls}


def untraced_wall(reports: str, workload: str) -> float | None:
    """Median wall_s of the untraced runs of this workload in this checkout."""
    walls = []
    for path in glob.glob(os.path.join(reports, f"{workload}-trace0-seed*.json")):
        with open(path) as fh:
            walls.append(json.load(fh)["metrics"]["wall_s"]["value"])
    return statistics.median(walls) if walls else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind like Ctrl-C: subprocess.run stops and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracobs", "cli.py")):
        print("perfbench: run from the root of a fracobs checkout (src/fracobs/cli.py "
              "not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    base = os.path.join(root, ".bench_build", "perfbench")
    reports = os.path.join(base, "reports")
    os.makedirs(reports, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
    try:
        runner = Runner(root, work, started + RUN_LIMIT_S)
        config = os.path.join(work, "run.cfg")
        with open(config, "w") as fh:
            fh.write(workload.config + f"seed = {args.seed}\n")

        probes = [runner.child("probe", config) for _ in range(SETUP_PROBES)]
        setups = [rep["ready"] - spawned for code, _, rep, spawned in probes if code == 0]
        provenance = dict(probes[0][2])
        for key in ("ready", "maxrss_kb"):
            provenance.pop(key, None)

        sequences = []
        measure_start = time.monotonic()
        while True:
            seq_start = time.monotonic()
            seq = run_sequence(runner, workload, config,
                               os.path.join(work, f"seq{len(sequences)}"), trace)
            sequences.append(seq)
            now = time.monotonic()
            if (now - measure_start >= args.seconds or not seq["complete"]
                    or now + (now - seq_start) > runner.deadline - 10.0):
                break
        bands = runner.child("mlf-bands")[2] if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for seq in sequences for op in seq["ops"]]
    problems = [f"{op.name}: {op.detail}" for op in ops if not op.ok]
    attempted, failed = len(ops), sum(not op.ok for op in ops)
    if trace:
        attempted += 1
        if not bands.get("pts_per_s") or bands.get("failed_bands"):
            failed += 1
            problems.append(f"mlf-bands: {bands.get('failed_bands', 'no report')}")

    nproc = len(os.sched_getaffinity(0))
    blas = provenance.get("blas_threads")
    if len(setups) != SETUP_PROBES or blas is None or blas > nproc:
        problems.append(f"set-up probes {len(setups)}/{SETUP_PROBES}, "
                        f"BLAS threads {blas} for nproc {nproc}")
    provenance.update({
        "nproc": nproc,
        "blas_env": BLAS_ENV,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": args.seed,
        "inputs_depend_on_seed": False,
        "sha256_lines": sequences[0]["sha256"],
    })

    detail: dict = {"sequences": len(sequences)}
    if trace:
        per_seq = [layer_metrics(seq) for seq in sequences]
        values = {name: statistics.median(v[0][name] for v in per_seq) for name, _ in PER_LAYER
                  if name in per_seq[0][0]}
        values.update({f"fraccalc.mlf_values.pts_per_s.{band}": bands.get("pts_per_s", {})
                       .get(band, 0.0) for band in _BANDS})
        values["fail_ratio"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        detail["attribution"] = per_seq[0][1]
        missing = sorted(name for name in workload.spans
                         if per_seq[0][1]["calls"].get(name, 0) == 0)
        if missing:
            problems.append(f"span coverage: no calls recorded for {missing}")
        untraced = untraced_wall(reports, workload.name)
        detail["tracing_overhead_s"] = (
            None if untraced is None else values["trace.wall_s"] - untraced
        )
        detail["span_log"] = [tr["span_log"] for tr in sequences[0]["traces"]]
    else:
        errors = [seq["omega_error"] for seq in sequences if seq["omega_error"] is not None]
        values = {
            "setup_s": statistics.median(setups + [s for seq in sequences for s in seq["setups"]]),
            "wall_s": statistics.median(seq["wall_s"] for seq in sequences),
            "peak_rss_mb": statistics.median(seq["peak_rss_mb"] for seq in sequences),
            # a run without an error value has failed its checks already
            "omega_error": statistics.median(errors) if errors else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        detail["per_sequence"] = [
            {"wall_s": seq["wall_s"], "peak_rss_mb": seq["peak_rss_mb"],
             "setups": seq["setups"], "omega_error": seq["omega_error"]}
            for seq in sequences
        ]

    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report_path = os.path.join(
        reports, f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    )
    with open(report_path, "w") as fh:
        json.dump({"workload": workload.name, "provenance": provenance, "problems": problems,
                   "ops": [vars(op) for op in ops], **detail, **result}, fh, indent=1)

    print(f"perfbench {workload.name} seed={args.seed}: the workload is noiseless, so its "
          f"inputs do not depend on the seed (the seed only enters the config's seed field)")
    print("provenance " + json.dumps({k: v for k, v in provenance.items()
                                      if k != "sha256_lines"}, sort_keys=True))
    for line in provenance["sha256_lines"]:
        print(f"output {line}")
    for problem in problems:
        print(f"FAILED {problem}")
    if trace:
        shares = detail["attribution"]["self_share_of_wall"]
        print("self-time share of wall_s: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares.items() if share >= 0.001))
        overhead = detail["tracing_overhead_s"]
        print("tracing overhead (traced wall_s - median untraced wall_s here): "
              + ("no untraced run recorded in this checkout" if overhead is None
                 else f"{overhead:.3f} s"))
    print(f"report {os.path.relpath(report_path, root)} "
          f"({len(sequences)} sequence(s), {time.monotonic() - started:.1f} s)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
