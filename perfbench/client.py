"""The workload process: one closed-loop client calling seqforms.cli.main.

    python3 perfbench/client.py --workload NAME --seed N --dir WORKDIR
        [--setup-only | --seconds S [--trace] | --rounds R [--trace]]

Set-up imports seqforms and seqforms.cli from ``src/`` of the checkout,
writes the workload's rule files from the seed and makes one warm-up call
per operation kind; then it prints READY. The timed phase repeats whole
rounds of the workload's calls, each call preceded by one host-speed
calibration sample (calibrate.py) that is not part of its time. With
--trace, every second round runs under the tracer and the others run
untraced, which gives the tracing overhead.
Each call writes its report to its own file; the calls' exit codes and wall
times go to WORKDIR/client.json, the spans to WORKDIR/trace.jsonl. The
run harness (run.py) sets the BLAS thread count in the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def _call(cli, argv):
    """One operation: returns (exit code or None, error text or None)."""
    try:
        return cli.main(argv), None
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import seqforms
    import seqforms.cli

    if not os.path.abspath(seqforms.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"seqforms imported from {seqforms.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import calibrate
    import workloads

    inputs = os.path.join(args.dir, "inputs")
    files, ops = workloads.build(args.workload, args.seed)
    workloads.write_inputs(files, inputs)
    warm_out = os.path.join(args.dir, "warmup.json")
    for op in workloads.warmup_ops(args.workload):
        rc, err = _call(seqforms.cli, op.resolved_argv(inputs, warm_out))
        if rc != 0:
            sys.stderr.write(f"warm-up {op.id} failed: rc={rc} {err or ''}\n")
            return 3
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    reports = os.path.join(args.dir, "reports")
    os.makedirs(reports, exist_ok=True)

    records, rounds = [], []
    traced_ops = 0
    start = time.perf_counter()
    while True:
        rnd = len(rounds)
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for op in ops:
            out = os.path.join(reports, f"r{rnd}-{op.id}.json")
            argv_ = op.resolved_argv(inputs, out)
            cal = calibrate.sample()
            if traced:
                tracer.op = len(records)
            t0 = time.perf_counter()
            rc, err = _call(seqforms.cli, argv_)
            t1 = time.perf_counter()
            records.append({"op": op.id, "round": rnd, "rc": rc, "error": err,
                            "seconds": t1 - t0, "cal": cal, "traced": traced,
                            "out": os.path.relpath(out, args.dir)})
        if traced:
            tracer.uninstall()
            traced_ops += len(ops)
        rounds.append({"traced": traced,
                       "seconds": time.perf_counter() - round_start})
        elapsed = time.perf_counter() - start
        if args.rounds is not None:
            if len(rounds) >= args.rounds:
                break
        elif (elapsed >= args.seconds and len(records) >= workloads.MIN_OPS
              and (tracer is None or len(rounds) >= 2)):
            break

    if tracer is not None:
        tracer.dump(os.path.join(args.dir, "trace.jsonl"), traced_ops)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    with open(os.path.join(args.dir, "client.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
