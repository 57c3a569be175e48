"""The compare mode of tests/snapshot_outputs.py on small synthetic output
directories."""

import pytest

from snapshot_outputs import main

BEFORE = {
    "case/nodal_passivity.csv": "freq_hz,nodal_index,degenerate\n1,0.5,0\n2,-0.25,0\n3,nan,1\n",
    "case/gnc_verdict.csv": "encirclements,stable,winding_float\n0,1,0.5\n",
    "case/nodal_passivity.svg": "<svg/>\n",
    "case/gnc.stdout": "gnc verdict: stable\n",
    "case/gnc.exit": "0\n",
}
PASSIVITY = "freq_hz,nodal_index,degenerate\n1,0.5,0\n2,{},0\n3,{},1\n"


def write_outputs(out, files):
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("changes, line, passes", [
    ({}, "case/nodal_passivity.csv:nodal_index: max rel 0 ok", True),
    ({"case/nodal_passivity.csv": PASSIVITY.format("-0.2500000001", "nan")},
     "case/nodal_passivity.csv:nodal_index: max rel 2e-10 ok", True),
    ({"case/nodal_passivity.csv": PASSIVITY.format("-0.2501", "nan")},
     "case/nodal_passivity.csv:nodal_index: max rel 0.0002 BREAKS TOLERANCE", False),
    ({"case/nodal_passivity.csv": PASSIVITY.format("-0.25", "0.5")},
     "case/nodal_passivity.csv:nodal_index: max rel inf BREAKS TOLERANCE", False),
    ({"case/nodal_passivity.csv": PASSIVITY.format("-inf", "inf")},
     "case/nodal_passivity.csv:nodal_index: max rel inf BREAKS TOLERANCE", False),
    ({"case/gnc_verdict.csv": "encirclements,stable,winding_float\n-2,0,0.5\n"},
     "case/gnc_verdict.csv:stable: max rel inf EXACT MISMATCH", False),
    ({"case/nodal_passivity.csv": "freq_hz,nodal_index,degenerate\n1,0.5,1\n2,-0.25,0\n3,nan,1\n"},
     "case/nodal_passivity.csv:degenerate: max rel 1 EXACT MISMATCH", False),
    ({"case/nodal_passivity.svg": "<svg></svg>\n"}, "case/nodal_passivity.svg: changed", True),
    ({"case/gnc.stdout": "gnc verdict: unstable\n"}, "case/gnc.stdout: changed", True),
    ({"case/gnc.exit": "3\n"}, "case/gnc.exit: changed", False),
    ({"case/gnc.stdout": None}, "case/gnc.stdout: removed", False),
    ({"case/modes.csv": "unstable,n_modes\n0,2\n"}, "case/modes.csv: added", False),
    ({"case/gnc_verdict.csv": "encirclements,stable\n0,1\n"},
     "case/gnc_verdict.csv:winding_float: removed", False),
    ({"case/nodal_passivity.csv": "freq_hz,nodal_index,degenerate\n1,0.5,0\n2,-0.25,0\n"},
     "case/nodal_passivity.csv: rows 3 -> 2", False),
], ids=["equal", "within_tolerance", "beyond_tolerance", "nan_to_number", "number_to_inf",
        "verdict_flips", "flag_flips", "svg_changed", "stdout_changed", "exit_code_changed",
        "file_removed", "file_added", "column_removed", "row_removed"])
def test_compare_reports_each_difference_and_fails_on_the_ones_that_matter(
        tmp_path, capsys, changes, line, passes):
    after = {**BEFORE, **changes}
    write_outputs(tmp_path / "a", BEFORE)
    write_outputs(tmp_path / "b", {name: text for name, text in after.items() if text is not None})
    status = main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    report = capsys.readouterr().out.splitlines()
    assert line in report
    assert report[-1] == ("pass" if passes else "FAIL")
    assert status == (0 if passes else 1)


def test_compare_reports_every_column_and_every_other_file(tmp_path, capsys):
    write_outputs(tmp_path / "a", BEFORE)
    write_outputs(tmp_path / "b", BEFORE)
    assert main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "case/gnc.exit: equal",
        "case/gnc.stdout: equal",
        "case/gnc_verdict.csv:encirclements: max rel 0 ok",
        "case/gnc_verdict.csv:stable: max rel 0 ok",
        "case/gnc_verdict.csv:winding_float: max rel 0 ok",
        "case/nodal_passivity.csv:freq_hz: max rel 0 ok",
        "case/nodal_passivity.csv:nodal_index: max rel 0 ok",
        "case/nodal_passivity.csv:degenerate: max rel 0 ok",
        "case/nodal_passivity.svg: equal",
        "pass",
    ]
