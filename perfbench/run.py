"""Benchmark of the seqforms CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload {dense-pair,class-ladder,series-ladder}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Set-up time is the median of several cold
starts of the workload process (client.py); the middle one goes on into the
timed phase. Every time is rescaled to a reference host speed by the
calibration kernels of calibrate.py: call times by the kernels the client
times between its calls, set-up times by a cold-start kernel timed before
each. Afterwards every
report is parsed as strict JSON and checked by the oracle. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads here or in any workload process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # cold starts per run; setup_s is their median
DEADLINE_S = 170  # a run that has not ended by then is stopped, with no result
END_TO_END_UNITS = {"setup_s": "s", "throughput_ops_s": "ops/s",
                    "latency_p50_s": "s", "latency_p90_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _client_cmd(workload, seed, workdir, *mode):
    return [sys.executable, os.path.join(HERE, "client.py"), "--workload",
            workload, "--seed", str(seed), "--dir", workdir, *mode]


class _Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        return left


def _start(cmd, deadline):
    """Start a client and wait for its READY line; returns (process,
    (set-up seconds from spawn to READY, seconds of the cold-start kernel
    run just before))."""
    try:
        kernel = calibrate.cold_start(deadline.left())
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"cold-start kernel failed: {exc}") from None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError("client set-up failed or timed out")
    return proc, (setup, kernel)


def _stop(proc):
    proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline):
    try:
        proc.wait(timeout=deadline.left())
    except (subprocess.TimeoutExpired, BenchError):
        _stop(proc)
        raise BenchError("client timed out") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"client exited with {proc.returncode}")


def _setup_sample(workload, seed, workdir, deadline):
    proc, setup = _start(_client_cmd(workload, seed, workdir, "--setup-only"),
                         deadline)
    _finish(proc, deadline)
    return setup


def run_client(workload, seed, workdir, mode, setup_samples):
    """Set-up-only cold starts before and after the timed client, whose own
    set-up is one more sample; returns the samples, each (set-up seconds,
    kernel seconds), and the client's log."""
    deadline = _Deadline(DEADLINE_S)
    before = (setup_samples - 1) // 2
    samples = [_setup_sample(workload, seed, workdir, deadline)
               for _ in range(before)]
    proc, setup = _start(_client_cmd(workload, seed, workdir, *mode), deadline)
    samples.append(setup)
    _finish(proc, deadline)
    samples += [_setup_sample(workload, seed, workdir, deadline)
                for _ in range(setup_samples - 1 - before)]
    with open(os.path.join(workdir, "client.json")) as fh:
        return samples, json.load(fh)


def check_outputs(workload, seed, workdir, client):
    """Strict-JSON parse and oracle check of every report. Returns (failed
    call count, first check error or None, output bytes of traced calls)."""
    _, ops = workloads.build(workload, seed)
    by_id = {op.id: op for op in ops}
    checker = oracle.Oracle(os.path.join(workdir, "inputs"))
    verdicts = {}  # (op id, report body) -> error text or None
    failed, error, traced_bytes = 0, None, 0
    for rec in client["records"]:
        if rec["rc"] != 0:
            failed += 1
            continue
        op = by_id[rec["op"]]
        try:
            with open(os.path.join(workdir, rec["out"])) as fh:
                text = fh.read()
            payload = oracle.parse_strict(text)
            checker.check_envelope(op, payload)
            key = (op.id, json.dumps(payload["report"], sort_keys=True))
            if key not in verdicts:
                try:
                    checker.check_report(op, payload["report"])
                    verdicts[key] = None
                except oracle.CheckError as exc:
                    verdicts[key] = str(exc)
            if verdicts[key]:
                raise oracle.CheckError(verdicts[key])
        except (oracle.CheckError, OSError, ValueError) as exc:
            error = error or f"{op.id} (round {rec['round']}): {exc}"
            continue
        if rec["traced"]:
            # bytes written, less the digits of the run-time figure in meta
            runtime = payload["meta"]["runtime_s"]
            traced_bytes += len(text.encode()) - len(json.dumps(runtime))
    return failed, error, traced_bytes


def _timings(setups, calls, rss_mb):
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(calls) / sum(calls),
        "latency_p50_s": statistics.median(calls),
        "latency_p90_s": statistics.quantiles(calls, n=10,
                                              method="inclusive")[8],
        "peak_rss_mb": rss_mb,
    }


def end_to_end(samples, client):
    """End-to-end metrics over the untraced calls, each call time rescaled
    by its own speed factor and each set-up sample by its cold-start
    kernel; returns (metrics, the same from wall times, the calls' median
    speed factor)."""
    records = client["records"]
    speeds = calibrate.local_factors([r["cal"] for r in records])
    ok = [(r["seconds"], f) for r, f in zip(records, speeds)
          if r["rc"] == 0 and not r["traced"]]
    if len(ok) < 2:
        raise BenchError(f"only {len(ok)} untraced calls completed")
    speed = statistics.median(f for _, f in ok)
    rss_mb = client["maxrss_kb"] / 1024.0
    setups = [t * calibrate.COLD_REF_S / k for t, k in samples]
    values = _timings(setups, [t * f for t, f in ok], rss_mb)
    wall = _timings([t for t, _ in samples], [t for t, _ in ok], rss_mb)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return metrics, wall, speed


def trace_overhead(client):
    """Mean time of a traced round's calls over that of an untraced round's,
    minus one."""
    rounds = [[0.0, False] for _ in client["rounds"]]
    for r in client["records"]:
        rounds[r["round"]][0] += r["seconds"]
        rounds[r["round"]][1] = r["traced"]
    traced = [t for t, tr in rounds if tr]
    plain = [t for t, tr in rounds if not tr]
    return statistics.mean(traced) / statistics.mean(plain) - 1.0


def run(workload, seed, seconds, trace, setup_samples=SETUP_SAMPLES,
        rounds=None):
    if not os.path.isfile(os.path.join(SRC, "seqforms", "__init__.py")):
        raise BenchError(f"no seqforms package under {SRC}")
    workdir = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # byte-compile once, so no cold start pays for it
    compileall.compile_dir(os.path.join(SRC, "seqforms"), quiet=2)

    mode = ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    if trace:
        mode.append("--trace")
    samples, client = run_client(workload, seed, workdir, mode, setup_samples)
    failed, error, traced_bytes = check_outputs(workload, seed, workdir, client)
    attempted = len(client["records"])

    e2e, wall, speed = end_to_end(samples, client)
    summary = {"workload": workload, "seed": seed, "blas_threads": BLAS_THREADS,
               "rounds": len(client["rounds"]),
               "setup_samples": [{"wall_s": t, "cold_start_s": k}
                                 for t, k in samples],
               "speed_factor": speed, "wall": wall, "end_to_end": e2e}
    if trace:
        header, spans = tracing.load(os.path.join(workdir, "trace.jsonl"))
        metrics = tracing.layer_metrics(header, spans, traced_bytes)
        summary["per_layer"] = metrics
        summary["trace_overhead"] = trace_overhead(client)
        summary["traced_ops"] = header["ops"]
    else:
        metrics = e2e
    result = {"correct": error is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    summary["result"] = result
    summary["check_error"] = error
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for sub in ("inputs", "reports"):
        shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)
    return summary


def _print_summary(summary):
    print(f"# {summary['workload']} seed={summary['seed']} "
          f"rounds={summary['rounds']} blas_threads={summary['blas_threads']}")
    print(f"#   host speed factor {summary['speed_factor']:.4g} "
          "(figures at reference speed; wall-clock figures in brackets)")
    for name, m in summary["end_to_end"].items():
        print(f"#   {name:<36} {m['value']:.6g} {m['unit']} "
              f"({summary['wall'][name]:.6g})")
    if "per_layer" in summary:
        print(f"#   trace overhead {summary['trace_overhead']:+.1%} "
              f"over {summary['traced_ops']} traced calls")
        for name, m in summary["per_layer"].items():
            print(f"#   {name:<36} {m['value']:.6g} {m['unit']}")
    if summary["check_error"]:
        print(f"# check failed: {summary['check_error']}")


def self_test():
    """Every workload for two rounds (one untraced, one traced), one set-up
    sample, every check. Takes tens of seconds."""
    ok = True
    for workload in workloads.WORKLOADS:
        summary = run(workload, 1, 0, True, setup_samples=1, rounds=2)
        _print_summary(summary)
        result = summary["result"]
        good = result["correct"] and result["failed"] == 0
        ok = ok and good
        print(f"self-test {workload}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    _print_summary(summary)
    result = summary["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
