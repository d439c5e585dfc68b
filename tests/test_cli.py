import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import seqforms
from seqforms.cli import _load_sequence, build_parser, main
from seqforms import operators
from seqforms.operators import DENSE_MAX_SIZE, dense
from seqforms.sequences import SequenceSpec

ONB = {"rule": "diagonal", "params": {"weight": {"kind": "constant", "value": 1.0}}}
TRIPLE_XI = {"rule": "triple", "params": {"kind": "xi"}}
TRIPLE_ETA = {"rule": "triple", "params": {"kind": "eta"}}
W_N = {"rule": "diagonal", "params": {"weight": {"kind": "n"}}}
W_INV = {"rule": "diagonal", "params": {"weight": {"kind": "1/n"}}}


@pytest.fixture
def spec_file(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_classify_onb(spec_file, capsys):
    path = spec_file("onb.json", ONB)
    code, payload = run_json(
        capsys, ["classify", "--spec", path, "--dim", "64", "--count", "64"]
    )
    assert code == 0
    assert payload["schema"] == "seqforms/1"
    rep = payload["report"]
    assert rep["bessel_bound"] == pytest.approx(1.0, abs=1e-12)
    assert rep["lower_bound"] == pytest.approx(1.0, abs=1e-12)
    assert rep["riesz_basis"] is True


def test_classify_with_ladder(spec_file, capsys):
    path = spec_file("wn.json", W_N)
    code, payload = run_json(
        capsys,
        ["classify", "--spec", path, "--dim", "8", "--ladder", "8,16,32"],
    )
    assert code == 0
    assert payload["report"]["asymptotic"]["inferred_class"] == "LowerSemiFrame"


def test_form_assess_weight_inverse(spec_file, capsys):
    left = spec_file("wn.json", W_N)
    right = spec_file("winv.json", W_INV)
    code, payload = run_json(
        capsys, ["form-assess", "--left", left, "--right", right, "--dim", "8"]
    )
    assert code == 0
    assert payload["report"]["zero_closed"] is True
    assert payload["report"]["assoc_invertible"] is True


def test_reconstruct_canonical(spec_file, capsys):
    path = spec_file("wn.json", W_N)
    code, payload = run_json(
        capsys, ["reconstruct", "--spec", path, "--dim", "16"]
    )
    assert code == 0
    assert payload["report"]["max_residual"] < 1e-10
    assert payload["report"]["systems"][0]["kind"] == "canonical_lower"


def test_reconstruct_pair(spec_file, capsys):
    left = spec_file("wn.json", W_N)
    right = spec_file("winv.json", W_INV)
    code, payload = run_json(
        capsys,
        ["reconstruct", "--left", left, "--right", right, "--dim", "8"],
    )
    assert code == 0
    kinds = [s["kind"] for s in payload["report"]["systems"]]
    assert kinds == ["reproducing_left", "reproducing_right"]
    assert payload["report"]["max_residual"] < 1e-12


def test_scenario_subcommand(capsys):
    code, payload = run_json(
        capsys, ["scenario", "--id", "weight-inverse-pair", "--ladder", "8,16,32"]
    )
    assert code == 0
    assert payload["report"]["all_ok"] is True
    assert "runtime_s" in payload["meta"]


def test_list_subcommand(capsys):
    code, payload = run_json(capsys, ["list"])
    assert code == 0
    assert "finite-difference" in payload["report"]["scenarios"]


def test_csv_output(spec_file, capsys):
    path = spec_file("onb.json", ONB)
    code = main(
        ["classify", "--spec", path, "--dim", "4", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, values = out.strip().split("\n")
    assert "bessel_bound" in header
    row = dict(zip(header.split(","), values.split(",")))
    assert float(row["bessel_bound"]) == 1.0


def test_report_body_is_byte_stable(spec_file, capsys):
    path = spec_file("onb.json", ONB)
    bodies = []
    for _ in range(2):
        _, payload = run_json(
            capsys, ["classify", "--spec", path, "--dim", "6"]
        )
        bodies.append(json.dumps(payload["report"], sort_keys=True))
    assert bodies[0] == bodies[1]


def test_output_file(spec_file, tmp_path, capsys):
    path = spec_file("onb.json", ONB)
    out = tmp_path / "report.json"
    code = main(["classify", "--spec", path, "--dim", "4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["command"] == "classify"


def test_domain_error_exit_code(capsys):
    code = main(["scenario", "--id", "no-such-scenario"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UnknownScenario"


def test_lower_semi_frame_failure_is_domain_error(spec_file, capsys):
    # rank-deficient columns: canonical dual must refuse
    bad = spec_file(
        "bad.json",
        {"rule": "explicit", "params": {"matrix": [[1.0, 1.0], [0.0, 0.0]]}},
    )
    code = main(["reconstruct", "--spec", bad, "--dim", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotLowerSemiFrame"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["classify", "--spec", "missing.json", "--dim", "4"]) == 2
    capsys.readouterr()
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["classify", "--spec", str(bad), "--dim", "4"]) == 2
    capsys.readouterr()
    assert main(["classify"]) == 2  # missing required flags
    capsys.readouterr()
    assert main(["reconstruct", "--dim", "4"]) == 2  # no sequence given
    capsys.readouterr()
    onb = tmp_path / "onb.json"
    onb.write_text(json.dumps(ONB))
    assert main(
        ["classify", "--spec", str(onb), "--dim", "4", "--ladder", "5,4,3"]
    ) == 2
    capsys.readouterr()


def _assert_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,code", [
    (["--spec"], 0),
    (["--left", "--right"], 0),
    (["--spec", "--left"], 2),
    (["--spec", "--right"], 2),
    (["--spec", "--left", "--right"], 2),
    (["--left"], 2),
    (["--right"], 2),
])
def test_reconstruct_takes_spec_alone_or_left_and_right(
    spec_file, capsys, flags, code
):
    path = spec_file("onb.json", ONB)
    argv = ["reconstruct", "--dim", "4", "--trials", "2"]
    for flag in flags:
        argv += [flag, path]
    if code == 2:
        _assert_usage_error(main(argv), capsys)
    else:
        assert main(argv) == 0


def test_probe_block_above_the_cap_is_a_domain_error_before_drawing(
    spec_file, capsys, monkeypatch
):
    def refuse(seed):
        raise AssertionError("drew the probes")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    path = spec_file("wn.json", W_N)
    trials = 10**9
    code = main(["reconstruct", "--spec", path, "--dim", "8", "--trials", str(trials)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DenseTooLarge"
    assert error["details"] == {
        "trials": trials, "dim": 8, "count": 8, "cap": DENSE_MAX_SIZE,
    }


def test_coefficient_block_above_the_cap_is_a_domain_error_before_drawing(
    spec_file, capsys, monkeypatch
):
    """The triple pair at dim 10 has count 30: 100 probes fit the cap as a
    dim x trials block (1000 entries), but their count x trials block of
    coefficients (3000) does not."""
    def refuse(*args):
        raise AssertionError("drew the probes")

    monkeypatch.setattr("seqforms.reconstruct._probe_draws", refuse)
    monkeypatch.setattr("seqforms.reconstruct.DENSE_MAX_SIZE", 2000)
    xi = spec_file("xi.json", {"rule": "triple", "params": {"kind": "xi"}})
    eta = spec_file("eta.json", {"rule": "triple", "params": {"kind": "eta"}})
    code = main(["reconstruct", "--left", xi, "--right", eta, "--dim", "10",
                 "--count", "30", "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DenseTooLarge"
    assert error["details"] == {"trials": 100, "dim": 10, "count": 30, "cap": 2000}


@pytest.mark.parametrize(
    "extra",
    [["--dim", "0"], ["--dim", "-3"], ["--dim", "4", "--count", "0"],
     ["--dim", "4", "--trials", "-1"]],
)
def test_sizes_below_one_are_usage_errors(spec_file, capsys, extra):
    path = spec_file("wn.json", W_N)
    command = "reconstruct" if "--trials" in extra else "classify"
    _assert_usage_error(main([command, "--spec", path] + extra), capsys)


@pytest.mark.parametrize(
    "extra", [["--tol-rank", "nan"], ["--tol-eq", "inf"], ["--tol-rank=-inf"]]
)
def test_non_finite_tolerances_are_usage_errors(spec_file, capsys, extra):
    if "--tol-eq" in extra:  # only scenario takes the equality tolerance
        argv = ["scenario", "--id", "weighted-riesz"]
    else:
        argv = ["classify", "--spec", spec_file("wn.json", W_N), "--dim", "8"]
    _assert_usage_error(main(argv + extra), capsys)


def test_tol_eq_is_refused_by_commands_that_do_not_read_it(spec_file, capsys):
    path = spec_file("wn.json", W_N)
    assert main(["classify", "--spec", path, "--dim", "8", "--tol-eq", "1e-9"]) == 2
    assert "--tol-eq" in capsys.readouterr().err
    assert main(["list", "--tol-rank", "0.5"]) == 2


@pytest.mark.parametrize(
    "content",
    [
        b'{"rule": "explicit", "params": {"matrix": [[1.0, NaN], [0.0, 1.0]]}}',
        b'{"rule": "explicit", "params": {"matrix": [[1.0, Infinity], [0.0, 1.0]]}}',
        b'{"rule": "explicit", "params": {"matrix": [[1.0, 1e400], [0.0, 1.0]]}}',
        b'{"rule": "diagonal", "params": {"weight": {"kind": "n\xff"}}}',
        b'{"rule": "explicit", "params": {"matrix": [[1.0, 0.0], [0.0,',
        b"",
    ],
    ids=["nan", "infinity", "1e400", "not-utf8", "truncated", "empty"],
)
def test_unloadable_rule_file_is_usage_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["classify", "--spec", str(bad), "--dim", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load sequence rule") and err.count("\n") == 1


def test_integer_entry_beyond_64_bits_loads_as_its_float(spec_file):
    big = 2**64 + 1
    path = spec_file(
        "big.json",
        {"rule": "explicit", "params": {"matrix": [[[big, -big], [0, 0]], [[0, 0], [1, 0]]]}},
    )
    M = _load_sequence(path).matrix
    assert M[0, 0] == complex(float(big), -float(big))


def _weight(**weight):
    return {"rule": "diagonal", "params": {"weight": {"kind": "constant", **weight}}}


@pytest.mark.parametrize(
    "rule",
    [
        _weight(value="nan"),
        _weight(value="inf"),
        _weight(value="1+2j"),
        {"rule": "diagonal", "params": {"weight": {"kind": "table", "values": [1, "nan"]}}},
        {"rule": "explicit", "params": {"matrix": [[1.0, [0.0, 1.0]], ["2", 1.0]]}},
    ],
    ids=["value-nan", "value-inf", "value-complex", "table-nan", "mixed-matrix"],
)
def test_string_where_a_number_belongs_is_a_usage_error(spec_file, capsys, rule):
    code = main(["classify", "--spec", spec_file("bad.json", rule), "--dim", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load sequence rule") and err.count("\n") == 1


@pytest.mark.parametrize("weight,bessel", [
    ({"kind": "constant", "value": 2.5}, 6.25),
    ({"kind": "constant", "value": [0, 1]}, 1.0),
    ("n", 4.0),
])
def test_numbers_pairs_and_kind_shorthand_still_load(spec_file, capsys, weight, bessel):
    rule = {"rule": "diagonal", "params": {"weight": weight}}
    code, payload = run_json(
        capsys, ["classify", "--spec", spec_file("ok.json", rule), "--dim", "2"])
    assert code == 0
    assert payload["report"]["bessel_bound"] == pytest.approx(bessel, rel=1e-12)


def test_scenario_report_is_strict_json(capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code = main(["scenario", "--id", "finite-difference", "--ladder", "1,2,3"])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    claim = payload["report"]["claims"][0]
    assert claim["evidence"]["limit_error"] is None


def _diagonal(value):
    return {"rule": "diagonal", "params": {"weight": {"kind": "constant", "value": value}}}


def _explicit(matrix):
    return {"rule": "explicit", "params": {"matrix": matrix}}


@pytest.mark.parametrize(
    "command,rules,dim",
    [
        ("classify", [_explicit([[1e200, 0], [0, 1e200]])], 2),
        ("form-assess", [_explicit([[1e160, 0], [0, 1]])] * 2, 2),
        ("reconstruct", [_diagonal(1e300)], 4),
        ("classify", [_diagonal(1e-170)], 4),
        ("reconstruct", [_explicit([[1e-160, 0], [0, 1e-160]])] * 2, 2),
    ],
    ids=["B-overflows", "inf-in-body", "S-overflows", "A-underflows", "svd-fails"],
)
def test_scale_beyond_doubles_is_domain_error(spec_file, capsys, command, rules, dim):
    paths = [spec_file(f"r{i}.json", rule) for i, rule in enumerate(rules)]
    flags = ["--spec"] if len(paths) == 1 else ["--left", "--right"]
    argv = [command, "--dim", str(dim)]
    for flag, path in zip(flags, paths):
        argv += [flag, path]
    # a numpy RuntimeWarning would reach stderr ahead of the error object
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ScaleOutOfRange"
    assert [str(w.message) for w in caught] == []


SCALE_CALLS = {
    "form-assess": ["form-assess", "--left", "{rule}", "--right", "{rule}"],
    "classify": ["classify", "--spec", "{rule}"],
    "reconstruct-spec": ["reconstruct", "--spec", "{rule}"],
    "reconstruct-pair": ["reconstruct", "--left", "{rule}", "--right", "{rule}"],
}


@pytest.mark.parametrize("call", SCALE_CALLS)
def test_an_underflowed_bound_is_a_domain_error(spec_file, capsys, call):
    """At weight 1e-170 every singular value, 1e-170, is above the rank
    cutoff, but A = 1e-340 underflows to 0: each command says so, rather than
    reporting a lower bound of 0 or failing in 1/A."""
    rule = spec_file("tiny.json", _diagonal(1e-170))
    argv = [a.format(rule=rule) for a in SCALE_CALLS[call]] + ["--dim", "3"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ScaleOutOfRange",
        "message": "singular value 1e-170 is above the rank cutoff, but its "
                   "square underflowed to 0"}


@pytest.mark.parametrize("call", SCALE_CALLS)
def test_a_bound_just_inside_the_doubles_is_reported(spec_file, capsys, call):
    """At weight 1e-150, A = B = 1e-300 is a normal double: every call
    reports it, and its reciprocal where the body has one."""
    rule = spec_file("small.json", _diagonal(1e-150))
    argv = [a.format(rule=rule) for a in SCALE_CALLS[call]] + ["--dim", "3"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    report = payload["report"]
    if call == "classify":
        assert report["lower_bound"] == report["bessel_bound"] == 1e-300
        assert report["riesz_basis"] is True
        assert report["notes"] == ["frame_inverse_norm_bound=1/A=1e+300"]
    elif call == "form-assess":
        assert report["lower_bound_xi"] == report["lower_bound_eta"] == 1e-300
        assert report["zero_closed"] is report["assoc_invertible"] is True
        # 1 / sigma_min(T), sigma_min read exactly off T's 1 x 1 blocks
        assert report["assoc_inverse_norm"] == 9.999999999999999e+299
    else:
        bounds = [system["bessel_bound_of_dual"] for system in report["systems"]]
        assert bounds == [9.999999999999999e+299] * (1 if call.endswith("spec") else 2)
        assert report["max_residual"] < 1e-15


SCALED_FD = {"rule": "scaled", "params": {"base": {"rule": "finite_difference"},
                                           "factor": {"kind": "1/n"}}}


@pytest.mark.parametrize("dim", [4097, 100000])
@pytest.mark.parametrize("command,flags", [
    ("form-assess", ["--left", "--right"]),
    ("reconstruct", ["--spec"]),
    ("reconstruct", ["--left", "--right"]),
])
def test_dense_cap_is_a_domain_error_before_materializing(
    spec_file, capsys, monkeypatch, command, flags, dim
):
    """{n^-1 xi_n} of the finite differences is one chain of entries, so its
    bundle would be dense: above the cap it is refused before any dense
    dim x count array is allocated."""
    def refuse(self, dim, count):
        raise AssertionError(f"materialized a dense {dim} x {count} matrix")

    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape) >= dim * dim:
            raise MemoryError(f"allocated a {shape} array")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(SequenceSpec, "materialize", refuse)
    monkeypatch.setattr(np, "zeros", guarded)
    path = spec_file("scaled_fd.json", SCALED_FD)
    argv = [command, "--dim", str(dim)]
    for flag in flags:
        argv += [flag, path]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DenseTooLarge"
    assert error["details"] == {"dim": dim, "count": dim, "cap": DENSE_MAX_SIZE}


def test_a_held_block_above_the_cap_is_refused_at_birth(
    spec_file, capsys, monkeypatch
):
    """With factor 0 at n = 2, {t_n xi_n} of the finite differences has
    columns of two entries at dim 256, so its bundle is dense, though the
    matrix is e_1 beside one 255 x 254 block. Under a cap of 10^4 the whole
    256 x 256 array is refused when the bundle is born, before any
    factorization, while the diagonal {n e_n}, held as its entries, is
    assessed."""
    def refuse(*args, **kwargs):
        raise AssertionError("factorized a matrix")

    monkeypatch.setattr("seqforms.operators.DENSE_MAX_SIZE", 10**4)
    cut = {"rule": "scaled", "params": {
        "base": {"rule": "finite_difference"},
        "factor": {"kind": "table", "values": [1.0, 0.0] + [1.0] * 254}}}
    cut, wn = spec_file("cut.json", cut), spec_file("wn.json", W_N)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", refuse)
        code = main(["form-assess", "--left", cut, "--right", cut, "--dim", "256"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DenseTooLarge"
    assert error["details"] == {"dim": 256, "count": 256, "cap": 10**4}
    # the message states the whole truncation, 256 x 256
    assert "dense factorization of 65536 entries" in error["message"]
    code, payload = run_json(
        capsys, ["form-assess", "--left", wn, "--right", wn, "--dim", "256"])
    assert code == 0 and payload["report"]["zero_closed"] is True


@pytest.mark.parametrize("ladder", ["1,2,3", "2,3,4", "3,4,5", "1,3,6"])
def test_telescoping_pair_rungs_in_one_group_are_usage_errors(capsys, ladder):
    # each rung s is also read at 3 (s // 3) - 1, which must increase too
    code = main(["scenario", "--id", "telescoping-pair", "--ladder", ladder])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: telescoping-pair needs every ladder rung >= 3, "
                          "each in a different group of three")


def test_weight_inverse_pair_reports_a_form_that_is_not_zero_closed(capsys):
    # at this cutoff the N = 32 form is not 0-closed, so no duals exist
    code, payload = run_json(capsys, ["scenario", "--id", "weight-inverse-pair",
                                      "--ladder", "8,16,32", "--tol-rank", "0.5"])
    assert code == 0
    report = payload["report"]
    assert report["all_ok"] is False and len(report["claims"]) == 3
    reconstruction = report["claims"][2]
    assert reconstruction["reference"] == "weight-inverse-pair/reconstruction"
    assert reconstruction["status"] == "fail"
    assert reconstruction["evidence"] == {"max_residual": None, "dim": 32}


@pytest.mark.parametrize("scenario,cap", [
    ("finite-difference", 10**6),
    ("interleaved-lower", 10**5),
    ("dc-vs-s", 10**6),
    ("telescoping-pair", 10**6),
])
def test_scenario_ladder_cap_is_a_domain_error_before_allocating(
    capsys, monkeypatch, scenario, cap
):
    def refuse(self, dim, count):
        raise AssertionError(f"materialized a {dim} x {count} sparse matrix")

    monkeypatch.setattr(SequenceSpec, "materialize_sparse", refuse)
    code = main(["scenario", "--id", scenario, "--ladder", "100,1000,1000000000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DenseTooLarge"
    assert error["details"] == {"top": 10**9, "cap": cap}


def test_explicit_matrix_at_a_huge_dim_is_classified_without_a_dense_copy(
    spec_file, capsys, monkeypatch
):
    """A 2 x 2 identity at dim 10^6 splits into 1 x 1 blocks read off the
    stored columns alone: no dim x count array is ever allocated."""
    dim, count = 10**6, 2
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape) >= dim * count:
            raise MemoryError(f"allocated a {shape} array")
        return zeros(shape, *args, **kwargs)

    identity = {"rule": "explicit", "params": {"matrix": [[1, 0], [0, 1]]}}
    path = spec_file("id.json", identity)
    monkeypatch.setattr(np, "zeros", guarded)
    code, payload = run_json(
        capsys, ["classify", "--spec", path, "--dim", str(dim), "--count", str(count)]
    )
    assert code == 0
    assert payload["meta"]["spectral"]["truncation"]["backend"] == "blockwise"
    assert payload["report"]["bessel_bound"] == 1.0


def test_one_parser_serves_a_run_of_calls_like_fresh_processes(spec_file, capsys):
    """main calls in one process share one parser; a run of them (classify,
    a usage error, reconstruct, scenario) gives the exit codes, report
    bodies and usage messages of the same calls each in a fresh process."""
    wn, winv = spec_file("wn.json", W_N), spec_file("winv.json", W_INV)
    calls = [
        ["classify", "--spec", wn, "--dim", "16"],
        ["classify", "--spec", wn, "--dim", "16", "--bogus"],
        ["reconstruct", "--left", wn, "--right", winv, "--dim", "8", "--trials", "3"],
        ["scenario", "--id", "operator-image"],
    ]

    def body(out):
        return json.loads(out)["report"] if out else None

    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, body(captured.out), captured.err))
    assert build_parser() is build_parser()

    # the fresh processes import the package under test, installed or not
    src = os.path.dirname(os.path.dirname(seqforms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "seqforms.cli", *argv],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        fresh.append((run.returncode, body(run.stdout), run.stderr))
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0]
    assert in_process == fresh


_FRESH = """
import contextlib, io, json, sys
for name in {preload}:
    __import__(name)
import seqforms.cli
def loaded():
    return ["scipy.linalg" in sys.modules, "scipy.sparse" in sys.modules]
runs = [(None, None, *loaded())]
for argv in {calls}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = seqforms.cli.main(argv)
    body = json.loads(out.getvalue())["report"] if code == 0 else None
    runs.append((code, body, *loaded()))
print(json.dumps(runs))
"""


def _fresh_process(calls, preload=()):
    """[(exit, body, scipy.linalg loaded, scipy.sparse loaded)] in one fresh
    interpreter that first imports the modules preload: after `import
    seqforms.cli` (exit and body None), then after each call."""
    src = os.path.dirname(os.path.dirname(seqforms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _FRESH.format(preload=list(preload), calls=calls)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": path})
    return [tuple(r) for r in json.loads(run.stdout)]


def test_the_cli_and_its_common_calls_leave_scipy_linalg_unloaded(spec_file):
    """scipy.linalg costs about 50 ms and 8 MB to import, and only a dense
    Cholesky solve and a banded eigensolve use it: importing the CLI, a
    scenario, a diagonal pair's form-assess, and form-assess and pair
    reconstruct of the triple pair, whose inf-sup cosines and dual bounds
    come from numpy's Cholesky factors, never load it."""
    wn, winv = spec_file("wn.json", W_N), spec_file("winv.json", W_INV)
    triple = ["--left", spec_file("xi.json", TRIPLE_XI),
              "--right", spec_file("eta.json", TRIPLE_ETA), "--dim", "128",
              "--count", "384"]
    runs = _fresh_process([
        ["scenario", "--id", "dc-vs-s", "--ladder", "10,20,40"],
        ["form-assess", "--left", wn, "--right", winv, "--dim", "8"],
        ["form-assess", *triple],
        ["reconstruct", *triple],
    ])
    assert [(code, loaded) for code, _, loaded, _ in runs] == [
        (None, False), (0, False), (0, False), (0, False), (0, False)]


def test_triple_pair_form_assess_densifies_nothing(spec_file, tmp_path, monkeypatch):
    """At dim 160, count 480 both bundles of the triple pair are CSR. Route
    (b) reads the CSR Cholesky factors of the two frame matrices, so no
    matrix is made dense: no S, no X_xi X_eta^H and no count x dim analysis
    matrix for a range basis."""
    shapes = []

    def recorded(M, dim, count):
        shapes.append((M.shape, type(M).__name__))
        return dense(M, dim, count)

    monkeypatch.setattr(operators, "dense", recorded)
    argv = ["form-assess", "--left", spec_file("xi.json", TRIPLE_XI),
            "--right", spec_file("eta.json", TRIPLE_ETA), "--dim", "160",
            "--count", "480", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert shapes == []


def test_a_cosine_that_rounds_above_one_leaves_form_assess_standing(
    spec_file, capsys
):
    """Rows 1 and 2 of X_xi add up to row 1 of X_eta, so the ranges meet and
    one cosine is 1; from the factors it rounds to 1 + 2^-52. The gate and
    the reported angle read only c_min = 0.369, so form-assess, which runs
    under np.errstate(invalid="raise"), exits 0 where the arccos of every
    cosine would raise."""
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
    B[0] = A[0] + A[1]
    cos = operators.factor_cosines(*map(operators.bundle_from_columns, (A, B)))
    assert cos[0] > 1 and cos[-1] < 0.5**0.5
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        np.arccos(cos)
    left, right = (spec_file(f"{name}.json", {"rule": "explicit", "params": {
        "matrix": X.tolist()}}) for name, X in (("a", A), ("b", B)))
    code, payload = run_json(capsys, ["form-assess", "--left", left, "--right",
                                      right, "--dim", "3", "--count", "8"])
    assert code == 0
    report = payload["report"]
    assert report["c1"] == cos[-1] and report["zero_closed"] is True
    assert report["max_principal_angle"] == np.arccos(cos[-1])


def test_the_calls_that_need_scipy_linalg_load_it_on_first_use(spec_file):
    """classify of a w = 1 band at 256 x 256, whose first import of
    scipy.linalg runs under the CLI's np.errstate, and reconstruct --spec of
    a dense matrix each load scipy.linalg, and report the bodies of a
    process that imported it up front."""
    dense = _explicit((2 * np.eye(8) + 0.25 * np.tri(8, k=-1)).tolist())
    calls = [
        ["classify", "--spec", spec_file("scaled_fd.json", SCALED_FD), "--dim", "256"],
        ["reconstruct", "--spec", spec_file("dense.json", dense), "--dim", "8"],
    ]
    lazy = [_fresh_process([argv])[1] for argv in calls]
    eager = _fresh_process(calls, preload=["scipy.linalg"])[1:]
    assert [(code, loaded) for code, _, loaded, _ in lazy] == [(0, True), (0, True)]
    assert [run[1] for run in lazy] == [run[1] for run in eager]


def test_the_cli_dense_calls_and_a_small_classify_leave_scipy_sparse_unloaded(
    spec_file
):
    """scipy.sparse costs about 150 ms and 21 MB to import, and only a
    sparse matrix needs it: importing the CLI, the class-ladder benchmark's
    warm-up (a family with one entry per column, whose bundle holds its
    entries and reads its singular values off them), and form-assess,
    classify and reconstruct --spec of dense 64 x 64 matrices never load it."""
    rng = np.random.default_rng(3)
    left, right = (spec_file(f"{name}.json", _explicit(
        rng.standard_normal((64, 64)).tolist())) for name in ("a", "b"))
    wn = spec_file("wn.json", W_N)
    runs = _fresh_process([
        ["classify", "--spec", wn, "--dim", "8", "--ladder", "4,8,16"],
        ["form-assess", "--left", left, "--right", right, "--dim", "64"],
        ["classify", "--spec", left, "--dim", "64"],
        ["reconstruct", "--spec", left, "--dim", "64", "--trials", "3"],
    ])
    assert [(code, sparse) for code, _, _, sparse in runs] == [
        (None, False), (0, False), (0, False), (0, False), (0, False)]
    assert runs[1][1]["asymptotic"]["inferred_class"] == "LowerSemiFrame"


def test_a_large_classify_loads_scipy_sparse_on_first_use(spec_file):
    """classify of {n e_n} at 256 x 256 (256^2 entries) materializes CSC
    columns, so it loads scipy.sparse, and reports the body of a process
    that imported it up front."""
    argv = ["classify", "--spec", spec_file("wn.json", W_N), "--dim", "256"]
    lazy = _fresh_process([argv])[1]
    eager = _fresh_process([argv], preload=["scipy.sparse"])[1]
    assert (lazy[0], lazy[3]) == (0, True)
    assert lazy[1] == eager[1] and lazy[1]["bessel_bound"] == 256.0**2


@pytest.mark.parametrize("dim,count", [(64, 128), (48, 96)])
def test_a_ladder_reuses_the_spectrum_of_a_truncation_that_is_a_rung(
    spec_file, tmp_path, monkeypatch, dim, count
):
    """classify --ladder 64,128,256,512 of the paired family {e_1, e_1, e_2,
    2 e_2, ...}, as the class-ladder benchmark calls it: the truncation
    64 x 128 is the rung N = 64, so its spectrum is computed once, first,
    and 4 spectra make the report; a truncation off the ladder makes 5."""
    from seqforms import classify

    calls = []
    real = classify.frame_spectrum

    def counted(spec, d, c, tol):
        calls.append((d, c))
        return real(spec, d, c, tol)

    monkeypatch.setattr(classify, "frame_spectrum", counted)
    monkeypatch.setattr(seqforms.cli, "frame_spectrum", counted)
    paired = spec_file("paired.json", {"rule": "paired_double",
                                       "params": {"kind": "xi"}})
    argv = ["classify", "--spec", paired, "--dim", str(dim), "--count", str(count),
            "--ladder", "64,128,256,512", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    rungs = [(64, 128), (128, 256), (256, 512), (512, 1024)]
    assert calls == [(dim, count)] + [r for r in rungs if r != (dim, count)]
