"""Benchmark entry point.

    python3 perfbench/run.py --workload train|score|gradcheck --seed N \
        --seconds S --trace 0|1

Builds nothing: grhd is pure Python and is imported from ``src/``.  The
run synthesizes its inputs from ``--seed`` (set-up), then repeats whole
rounds of the workload's CLI commands for about ``--seconds`` seconds, then
checks the outputs.  The timed phase runs pinned to one core, next to the
core-speed meter of ``meter.py``; ``run_s`` is the median round time scaled
by the core's measured speed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  A record of the run (round times, core speeds, output
digests, errors) and, when traced, its spans are written under
``.perfbench_runs/``.
"""

import os

# Fixed before numpy is imported, here and in the set-up process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("GRHD_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from meter import SpeedMeter, speed  # noqa: E402
from workloads import MACHINE, TRAIN_EPOCHS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("command_child.py")
SETUP_TIMEOUT_S = 150
COMMAND_TIMEOUT_S = 150


def seconds_since_process_start() -> float:
    """Wall time since this process was started, interpreter start included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: list[str], result: Path, trace: Path | None) -> dict:
    """Run one CLI command in a fresh process; its timing and outputs."""
    cmd = [sys.executable, str(CHILD), str(result), str(trace or "-"), *argv]
    start_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)
    end_ns = time.monotonic_ns()
    if proc.returncode == 0 and result.exists():
        with open(result, "rb") as fh:
            return pickle.load(fh)
    return {"argv": argv, "rc": proc.returncode or -1, "stdout": "",
            "scored": [], "start_ns": start_ns, "end_ns": end_ns,
            "wall_s": (end_ns - start_ns) / 1e9, "cpu_s": 0.0,
            "peak_rss_mb": 0.0}


def output_digests(name: str, outputs: list[Path],
                   results: list[dict]) -> dict[str, str]:
    """SHA-256 of what one round wrote; gradcheck writes only stdout."""
    if name == "gradcheck":
        return {f"stdout{i}": sha256(r["stdout"].encode())
                for i, r in enumerate(results)}
    return {p.name: sha256(p.read_bytes()) for p in outputs}


def check_outputs(name: str, work: Path, results: list[dict]) -> list[str]:
    import checks
    if name == "gradcheck":
        return [e for r in results
                for e in checks.check_gradcheck(r["rc"], r["stdout"])]
    clips = {p.stem for p in (work / "data" / MACHINE).glob("*.wav")}
    test_ids = {c for c in clips if "_test_" in c}
    if name == "train":
        train_r, eval_r = results
        report = work / "report.csv"
        return (checks.check_loss_log(work / f"{MACHINE}.loss.csv",
                                      TRAIN_EPOCHS)
                + checks.check_scored_once(eval_r["scored"], test_ids, "nls")
                + checks.check_auc_cells(
                    report, checks.scored_items(eval_r["scored"]))
                + checks.check_detection(report))
    nls_r, knn_r, _ = results
    errors = []
    for r, label in ((nls_r, "nls"), (knn_r, "knn")):
        errors += checks.check_scored_once(r["scored"], test_ids, label)
        errors += checks.check_auc_cells(work / f"report_{label}.csv",
                                         checks.scored_items(r["scored"]))
    return errors + checks.check_embed_and_knn(
        work / "embed.csv", clips, work / "report_knn.csv")


def metric_spec(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the run record (JSON)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "grhd" / "cli.py").is_file():
        print(f"error: no grhd sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    spec = metric_spec(trace)

    stem = f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    runs = ROOT / ".perfbench_runs"
    work = ROOT / ".perfbench_work" / stem
    work.mkdir(parents=True)
    runs.mkdir(exist_ok=True)
    record_path = args.record or runs / f"{stem}.json"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": trace,
              "blas_threads": int(BLAS_THREADS), "cpus": os.cpu_count()}
    try:
        # ---------------------------------------------------- set-up --
        setup_trace = work / "setup.trace.json.gz"
        if workload.setup_commands(work, args.seed):
            cmd = [sys.executable, str(Path(__file__).with_name(
                "setup_child.py")), workload.name, str(args.seed), str(work)]
            if trace:
                cmd.append(str(setup_trace))
            env = dict(os.environ, PYTHONPATH=str(SRC))
            subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                           stdout=subprocess.DEVNULL)
        # Every command pays grhd's import in its own process, outside its
        # timed call; setup_s counts that cost once, here.  The results of
        # the command processes hold grhd objects, so it is needed anyway.
        sys.path.insert(0, str(SRC))
        import grhd.cli  # noqa: F401
        setup_s = seconds_since_process_start()
        record["setup_digests"] = {p.name: sha256(p.read_bytes())
                                   for p in workload.setup_outputs(work)}

        # ------------------------------------------------ timed phase --
        commands = workload.round_commands(work, args.seed)
        rounds, digests, traces = [], [], []
        attempted = failed = 0
        # The commands and the core-speed meter share one core, so the
        # meter samples exactly the core the commands run on.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        with SpeedMeter(cpu) as meter:
            started = time.perf_counter()
            round_s = []
            while True:
                t0 = time.perf_counter()
                results = []
                for c in commands:
                    n = attempted + len(results)
                    if trace:
                        traces.append(work / f"command{n}.trace.json.gz")
                    results.append(run_command(
                        c, work / f"command{n}.pickle",
                        traces[-1] if trace else None))
                rounds.append(results)
                round_s.append(time.perf_counter() - t0)
                attempted += len(results)
                failed += sum(r["rc"] != 0 for r in results)
                if failed:
                    break
                digests.append(output_digests(
                    workload.name, workload.round_outputs(work), results))
                elapsed = time.perf_counter() - started
                if elapsed + statistics.median(round_s) > args.seconds:
                    break
            samples = meter.stop()
        walls = [sum(r["wall_s"] for r in rs) for rs in rounds]
        cpus = [sum(r["cpu_s"] for r in rs) for rs in rounds]
        peaks = [max(r["peak_rss_mb"] for r in rs) for rs in rounds]
        # Each command's wall time on the reference core (meter.py).
        scaled = [sum(r["wall_s"] * speed(samples, r["start_ns"], r["end_ns"])
                      for r in rs) for rs in rounds]

        # ----------------------------------------------------- checks --
        errors = []
        if failed:
            errors.append(f"{failed} of {attempted} commands failed")
        else:
            errors += check_outputs(workload.name, work, results)
        if any(d != digests[0] for d in digests):
            errors.append("outputs differ between rounds of one run")
        record.update(rounds=len(walls), round_wall_s=walls,
                      round_scaled_s=scaled, round_cpu_s=cpus,
                      round_peak_rss_mb=peaks,
                      digests=digests[0] if digests else {},
                      errors=errors)

        if trace:
            from perlayer import per_layer, wiring_errors
            from tracer import merge, read_trace, write_trace
            snap = merge([read_trace(p) for p in traces if p.exists()])
            write_trace(snap, runs / f"{stem}.trace.json.gz")
            errors += wiring_errors(snap)
            setup_snap = None
            if setup_trace.exists():
                setup_snap = read_trace(setup_trace)
                shutil.copy(setup_trace, runs / f"{stem}.setup.trace.json.gz")
            values = per_layer(snap, setup_snap, len(walls), cpus)
            missing = [m for m in workload.required if not values.get(m)]
            if missing:
                errors.append(f"traced run lacks spans for {missing}")
        else:
            values = {"setup_s": setup_s,
                      "run_s": statistics.median(scaled),
                      "peak_rss_mb": statistics.median(peaks)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise SystemExit(f"metric mismatch with BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        errors.append(f"non-finite metrics {bad}")
    record["metrics"] = metrics
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
