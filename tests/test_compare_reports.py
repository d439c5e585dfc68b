"""tools/compare_reports.py lets floats move and fails on any other change."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"

FORM = {"exit": 0, "error": None, "body": {
    "null_dim_left": 0, "c1": 0.5, "direct_sum": "holds", "zero_closed": True}}
ERROR = {"exit": 1, "body": None, "error": {
    "type": "NotZeroClosed", "message": "not 0-closed", "details": {"dim": 8}}}
PARENT = {"form": FORM, "error": ERROR}


def _changed(call, path, value):
    """PARENT with the value at path (keys below the call) replaced."""
    calls = {key: {**record} for key, record in PARENT.items()}
    node = calls[call]
    for key in path[:-1]:
        node[key] = {**node[key]}
        node = node[key]
    node[path[-1]] = value
    return calls


@pytest.fixture
def compare(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def run(change):
        runs = {"parent": PARENT, "change": change}
        monkeypatch.setattr(tool, "_run", lambda checkout, seeds, out: runs[checkout])
        return tool.main(["parent", "change"])

    return run


@pytest.mark.parametrize("change,code", [
    (PARENT, 0),
    (_changed("form", ["body", "c1"], 0.5000000000000001), 0),
    (_changed("form", ["body", "zero_closed"], False), 1),
    (_changed("form", ["body", "null_dim_left"], 1), 1),
    (_changed("form", ["body", "direct_sum"], "fails_intersection"), 1),
    (_changed("form", ["exit"], 1), 1),
    (_changed("error", ["error", "type"], "ScaleOutOfRange"), 1),
    ({"form": FORM}, 1),
    ({**PARENT, "new": FORM}, 1),
], ids=["identical", "float", "boolean", "integer", "string", "exit-code",
        "error-type", "call-missing", "call-added"])
def test_exit_status_is_one_for_any_difference_but_a_float(compare, capsys, change, code):
    assert compare(change) == code
    calls = PARENT.keys() | change.keys()
    identical = sum(PARENT.get(key) == change.get(key) for key in calls)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"{identical} of {len(calls)} calls byte-identical")
