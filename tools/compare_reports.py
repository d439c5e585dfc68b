"""Compare the report bodies and error objects of two checkouts, float by float.

    python3 tools/compare_reports.py PARENT CHANGE [--seeds 501,502]

In each checkout it runs, in one fresh process with one BLAS thread, every
call of the benchmark: the warm-up calls and the round of dense-pair (at
each seed), class-ladder and series-ladder, with the argv lists read from
that checkout's perfbench/workloads.py, every catalog scenario on its
default ladder, interleaved-lower once more on 1023,1025,100000 (rungs on
either side of the edge of a 1024-row block of its exact sums and a top at
its cap; only at the default tolerances, which reach no rung above 600), a
fixed list of calls whose matrices split into blocks (see
_split_calls), one of calls on either side of the real/complex boundary
(see _dtype_calls), one of calls on either side of the underflow of a
squared singular value (see _scale_calls), one of calls whose inf-sup
cosines come from Cholesky factors (see _cholesky_calls) and one of calls
on complex matrices with one nonzero entry per column (see
_one_per_column_calls), with rule files the tool writes itself. Every
dense-pair, class-ladder, scenario, split, dtype, scale, cholesky and
one-per-column call runs a second time at --tol-rank 0.5,
where some forms are no longer 0-closed and some sequences no longer lower
semi-frames, so the error paths are compared too; every scenario runs a
third time at --tol-eq 0.6, where the lambda probes at distance 0.5 flip and
weighted-riesz/lambda-region fails.
Each call records its exit code, its report body (``meta`` dropped) on exit
0 and its error object (type, message, details) on exit 1. It then prints
every float that differs between the two checkouts, every other difference,
and a summary of how many calls are byte-identical.

Exit status: 1 when a value other than a float differs (an exit code, a
boolean, an integer, a string, an error type) or a call ran in one checkout
only; 0 when the checkouts differ in floats at most.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


# The dense-pair, class-ladder, scenario, split, dtype, scale, cholesky and
# one-per-column calls run once more with this rank cutoff, and the
# scenarios once more with this equality tolerance.
LOOSE_RANK = ["--tol-rank", "0.5"]
LOOSE_EQ = ["--tol-eq", "0.6"]


def _split_calls(work: str) -> dict:
    """{call id: argv} of the calls whose matrices split, which the benchmark
    reaches only at dims 256-384 and never prints: form-assess, pair
    reconstruct and reconstruct --spec of {n e_n}/{e_n/n} at dim 1024 and of
    the tiled pair X = [I_64 ... I_64] (16 copies) and X diag(1..1024) at
    dim 64, count 1024, whose matrix and dual columns are printed; classify,
    form-assess against itself and reconstruct --spec of a 256 x 256
    diagonal with one zero row and column and of the identity with one
    singular 2 x 2 block; classify of the 256 x 256 diagonals diag(8, ...,
    8, 4) and diag(8, ..., 8, 4 + ulp), whose sigma_min sits at and one ulp
    above the cutoff 0.5 sigma_max of --tol-rank 0.5, where the diagonal
    backend accepts the second alone; and the weight-inverse-pair scenario
    on 128,256,512. Above the dense cap of 4096^2 entries: form-assess, pair
    reconstruct and reconstruct --spec of {n e_n}/{e_n/n} at dims 4097 and
    10^5, which split into 1 x 1 blocks, and at dim 5000 of {n^-1 xi_n}
    with xi the finite differences (scaled-fd, one chain of entries) and of
    {t_n xi_n} with t_2 = 0 and t_n = 1 otherwise (cut, which splits off
    e_1 from one 4999 x 4998 block), each paired with itself. The rule files
    are written into work."""
    tiled = np.tile(np.eye(64), 16)
    zero_row = np.diag(np.arange(1.0, 257))
    zero_row[7, 7] = 0
    singular_block = np.eye(256)
    singular_block[8:10, 8:10] = 1
    fd = {"rule": "finite_difference"}
    cut = [1.0, 0.0] + [1.0] * 4998
    at_cutoff = [8.0] * 255 + [4.0]
    above_cutoff = at_cutoff[:-1] + [float(np.nextafter(4.0, np.inf))]
    rules = {
        "n": {"rule": "diagonal", "params": {"weight": {"kind": "n"}}},
        "inv": {"rule": "diagonal", "params": {"weight": {"kind": "1/n"}}},
        "scaled-fd": {"rule": "scaled", "params": {
            "base": fd, "factor": {"kind": "1/n"}}},
        "cut": {"rule": "scaled", "params": {
            "base": fd, "factor": {"kind": "table", "values": cut}}},
        **{name: {"rule": "diagonal", "params": {
            "weight": {"kind": "table", "values": values}}}
           for name, values in [("at-cutoff", at_cutoff),
                                ("above-cutoff", above_cutoff)]},
        **{name: {"rule": "explicit", "params": {"matrix": X.tolist()}}
           for name, X in [("tiled", tiled),
                           ("tiled-weighted", tiled * np.arange(1.0, 1025)),
                           ("zero-row", zero_row),
                           ("singular-block", singular_block)]},
    }
    path = _write_rules(work, "split", rules)
    calls = {}
    for left, right, size in [("n", "inv", ["--dim", "1024"]),
                              ("tiled", "tiled-weighted",
                               ["--dim", "64", "--count", "1024"])]:
        pair = ["--left", path[left], "--right", path[right], *size]
        calls[f"{left}/form-assess"] = ["form-assess", *pair]
        calls[f"{left}/reconstruct"] = ["reconstruct", *pair]
        calls[f"{left}/reconstruct-spec"] = ["reconstruct", "--spec", path[left], *size]
    for left, right, dim in [("n", "inv", 4097), ("n", "inv", 100000),
                             ("scaled-fd", "scaled-fd", 5000), ("cut", "cut", 5000)]:
        pair = ["--left", path[left], "--right", path[right], "--dim", str(dim)]
        calls[f"{left}/{dim}/form-assess"] = ["form-assess", *pair]
        calls[f"{left}/{dim}/reconstruct"] = ["reconstruct", *pair]
        calls[f"{left}/{dim}/reconstruct-spec"] = [
            "reconstruct", "--spec", path[left], "--dim", str(dim)]
    for name in ("zero-row", "singular-block"):
        size = ["--dim", "256"]
        calls[f"{name}/classify"] = ["classify", "--spec", path[name], *size]
        calls[f"{name}/form-assess"] = [
            "form-assess", "--left", path[name], "--right", path[name], *size]
        calls[f"{name}/reconstruct-spec"] = [
            "reconstruct", "--spec", path[name], *size]
    for name in ("at-cutoff", "above-cutoff"):
        calls[f"{name}/classify"] = ["classify", "--spec", path[name], "--dim", "256"]
    calls["scenario/weight-inverse-pair"] = [
        "scenario", "--id", "weight-inverse-pair", "--ladder", "128,256,512"]
    return calls


def _dtype_calls(work: str) -> dict:
    """{call id: argv} of calls on either side of the real/complex boundary:
    form-assess and pair reconstruct of the triple pair at dim 512, count
    1536 (real, dense and above the 256^2 crossover), and classify,
    form-assess against itself and reconstruct --spec of a random real
    256 x 256 matrix written as [re, 0.0] pairs, and of the same matrix with
    one nonzero imaginary part. The rule files are written into work."""
    real = np.random.default_rng(20).standard_normal((256, 256))
    one_imag = real.astype(complex)
    one_imag[3, 5] += 0.5j
    rules = {
        "triple-xi": {"rule": "triple", "params": {"kind": "xi"}},
        "triple-eta": {"rule": "triple", "params": {"kind": "eta"}},
        **{name: {"rule": "explicit", "params": {
            "matrix": np.stack([X.real, X.imag], axis=-1).tolist()}}
           for name, X in [("real-pairs", real.astype(complex)),
                           ("one-imag", one_imag)]},
    }
    path = _write_rules(work, "dtype", rules)
    pair = ["--left", path["triple-xi"], "--right", path["triple-eta"],
            "--dim", "512", "--count", "1536"]
    calls = {"triple/form-assess": ["form-assess", *pair],
             "triple/reconstruct": ["reconstruct", *pair]}
    for name in ("real-pairs", "one-imag"):
        size = ["--dim", "256"]
        calls[f"{name}/classify"] = ["classify", "--spec", path[name], *size]
        calls[f"{name}/form-assess"] = [
            "form-assess", "--left", path[name], "--right", path[name], *size]
        calls[f"{name}/reconstruct-spec"] = [
            "reconstruct", "--spec", path[name], *size]
    return calls


def _scale_calls(work: str) -> dict:
    """{call id: argv} of form-assess, classify, reconstruct --spec and pair
    reconstruct of the constant diagonal at weights 1e-170, whose squared
    singular values underflow to 0 although they are above the rank cutoff,
    and 1e-150, whose squares 1e-300 are normal doubles, at dim 3. The rule
    files are written into work."""
    path = _write_rules(work, "scale", {
        weight: {"rule": "diagonal", "params": {
            "weight": {"kind": "constant", "value": float(weight)}}}
        for weight in ("1e-170", "1e-150")})
    calls, size = {}, ["--dim", "3"]
    for weight, rule in path.items():
        calls[f"{weight}/form-assess"] = [
            "form-assess", "--left", rule, "--right", rule, *size]
        calls[f"{weight}/classify"] = ["classify", "--spec", rule, *size]
        calls[f"{weight}/reconstruct-spec"] = ["reconstruct", "--spec", rule, *size]
        calls[f"{weight}/reconstruct"] = [
            "reconstruct", "--left", rule, "--right", rule, *size]
    return calls


def _cholesky_calls(work: str) -> dict:
    """{call id: argv} of form-assess and pair reconstruct of the triple pair
    at dim 1024, count 3072, and of the paired pair at dim 256, count 512,
    whose largest cosine is exactly 1/sqrt 2 and whose smallest clears the
    gate; and of both pairs at dims 10^4 and 10^5, with count 3 dim and 2
    dim, above the dense cap. Both pairs split into blocks with diagonal
    frame matrices, so their inf-sup cosines come from blockwise Cholesky
    factors. The rule files are written into work."""
    path = _write_rules(work, "cholesky", {
        f"{rule}-{kind}": {"rule": rule, "params": {"kind": kind}}
        for rule in ("triple", "paired_double") for kind in ("xi", "eta")})
    calls = {}
    for rule, dim, count, tag in [
        ("triple", 1024, 3072, ""), ("paired_double", 256, 512, ""),
        *((rule, dim, arity * dim, f"/{dim}")
          for dim in (10**4, 10**5)
          for rule, arity in (("triple", 3), ("paired_double", 2))),
    ]:
        pair = ["--left", path[f"{rule}-xi"], "--right", path[f"{rule}-eta"],
                "--dim", str(dim), "--count", str(count)]
        calls[f"{rule}{tag}/form-assess"] = ["form-assess", *pair]
        calls[f"{rule}{tag}/reconstruct"] = ["reconstruct", *pair]
    return calls


def _one_per_column_calls(work: str) -> dict:
    """{call id: argv} of classify on the ladder 64,128,N, form-assess
    against itself and reconstruct --spec at dim N of an N x N complex
    matrix with one nonzero entry per column, at N = 255 and 257, just below
    and just above 256^2 entries: column j holds its entry on row j, except
    column 7, whose entry is on row 0, so row 0 is a 1 x 2 block and row 7
    is zero. Every truncation to its leading N' columns fits in N' rows.
    The rule files are written into work."""
    rng = np.random.default_rng(27)
    rules = {}
    for n in (255, 257):
        rows = np.arange(n)
        rows[7] = 0
        X = np.zeros((n, n), dtype=complex)
        X[rows, np.arange(n)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rules[str(n)] = {"rule": "explicit", "params": {
            "matrix": np.stack([X.real, X.imag], axis=-1).tolist()}}
    path = _write_rules(work, "one-per-column", rules)
    calls = {}
    for n, rule in path.items():
        size = ["--dim", n]
        calls[f"{n}/classify"] = ["classify", "--spec", rule, *size,
                                  "--ladder", f"64,128,{n}"]
        calls[f"{n}/form-assess"] = [
            "form-assess", "--left", rule, "--right", rule, *size]
        calls[f"{n}/reconstruct-spec"] = ["reconstruct", "--spec", rule, *size]
    return calls


def _write_rules(work: str, prefix: str, rules: dict) -> dict:
    """Writes each rule to work/prefix-name.json; {name: path}."""
    path = {}
    for name, rule in rules.items():
        path[name] = os.path.join(work, f"{prefix}-{name}.json")
        with open(path[name], "w") as fh:
            json.dump(rule, fh)
    return path


def _collect(checkout: str, seeds: list, out: str) -> None:
    """Runs in the child process: writes {call id: {"exit", "body", "error"}}."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import seqforms.cli as cli
    import workloads
    from seqforms.scenarios import scenario_ids

    bodies = {}
    with tempfile.TemporaryDirectory() as work:
        report = os.path.join(work, "report.json")

        def call(key, argv):
            if os.path.exists(report):
                os.remove(report)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            body = error = None
            if code == 0:
                with open(report) as fh:
                    body = json.load(fh)["report"]
            elif code == 1:
                error = json.loads(stderr.getvalue())["error"]
            bodies[key] = {"exit": code, "body": body, "error": error}

        for workload in workloads.WORKLOADS:
            for seed in seeds if workload == "dense-pair" else seeds[:1]:
                files, ops = workloads.build(workload, seed)
                inputs = os.path.join(work, f"{workload}-{seed}")
                workloads.write_inputs(files, inputs)
                for op in workloads.warmup_ops(workload) + ops:
                    key = f"{workload}/{seed}/{op.id}"
                    argv = op.resolved_argv(inputs, report)
                    call(key, argv)
                    if workload != "series-ladder":
                        call(f"{key}/tol-rank-0.5", argv + LOOSE_RANK)
        for sid in scenario_ids():
            argv = ["scenario", "--id", sid, "--out", report]
            call(f"scenario/{sid}", argv)
            call(f"scenario/{sid}/tol-rank-0.5", argv + LOOSE_RANK)
            call(f"scenario/{sid}/tol-eq-0.6", argv + LOOSE_EQ)
        call("scenario/interleaved-lower/1023,1025,100000",
             ["scenario", "--id", "interleaved-lower", "--ladder",
              "1023,1025,100000", "--out", report])
        fixed = [("split", _split_calls(work)), ("dtype", _dtype_calls(work)),
                 ("scale", _scale_calls(work)), ("cholesky", _cholesky_calls(work)),
                 ("one-per-column", _one_per_column_calls(work))]
        for prefix, calls in fixed:
            for key, argv in calls.items():
                argv = argv + ["--out", report]
                call(f"{prefix}/{key}", argv)
                call(f"{prefix}/{key}/tol-rank-0.5", argv + LOOSE_RANK)
    with open(out, "w") as fh:
        json.dump(bodies, fh)


def _run(checkout: str, seeds: list, out: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--collect",
                    os.path.abspath(checkout), "--seeds", ",".join(map(str, seeds)),
                    "--out", out], env=env, check=True)
    with open(out) as fh:
        return json.load(fh)


def _differences(path, a, b):
    """(path, parent value, change value, is_float) for every leaf that
    differs; a structural difference is one leaf."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _differences(f"{path}.{k}", a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(f"{path}[{i}]", x, y)
    elif type(a) is not type(b) or a != b:
        yield path, a, b, isinstance(a, float) and isinstance(b, float)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--seeds", default="501,502",
                   help="comma-separated dense-pair seeds")
    p.add_argument("--collect", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.collect:
        _collect(args.collect, seeds, args.out)
        return 0
    if not (args.parent and args.change):
        p.error("PARENT and CHANGE checkouts are required")

    with tempfile.TemporaryDirectory() as work:
        parent = _run(args.parent, seeds, os.path.join(work, "parent.json"))
        change = _run(args.change, seeds, os.path.join(work, "change.json"))
    identical = floats = others = 0
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if json.dumps(a) == json.dumps(b):
            identical += 1
            continue
        for path, x, y, is_float in _differences(key, a, b):
            floats += is_float
            others += not is_float
            print(f"{'float' if is_float else 'OTHER'} {path}: {x!r} -> {y!r}")
    total = len(parent.keys() | change.keys())
    print(f"{identical} of {total} calls byte-identical; "
          f"{floats} floats and {others} other values differ")
    return 1 if others else 0


if __name__ == "__main__":
    sys.exit(main())
