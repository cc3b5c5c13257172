"""tools/compare_snapshots.py on two small hand-made snapshot trees."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_snapshots.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_snapshots", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(variation: float, status: str = "pass") -> str:
    checks = [
        {"name": "dual-residual", "status": "pass", "measured": 6.0e-15, "tolerance": 1e-6},
        {"name": "dual-coefficient-variation", "status": status, "measured": variation, "tolerance": None},
        {"name": "classification", "status": "pass", "measured": "almost-soliton", "tolerance": None},
    ]
    return json.dumps({"command": "dualize", "config": {"samples": 200}, "checks": checks, "status": status})


def _tree(root: Path, variation: float, status: str = "pass", profile_rows=((0.5, 1.25), (1.0, 2.5))) -> Path:
    run = root / "dualize-koiso-json-seeddefault"
    run.mkdir(parents=True)
    (run / "exit").write_text("0")
    (run / "stderr").write_text("")
    (run / "stdout").write_text(_report(variation, status))
    skrp = root / "skrp-koiso-csv-seeddefault"
    skrp.mkdir()
    for name, content in (("exit", "0"), ("stderr", ""), ("stdout", "")):
        (skrp / name).write_text(content)
    (skrp / "report").write_text("name,status,measured,tolerance\r\nverdict,pass,complete,\r\n")
    rows = "".join(f"{f!r},{q!r}\r\n" for f, q in profile_rows)
    (skrp / "report.profile.csv").write_text("f,Q\r\n" + rows)
    (root / "configs").mkdir()
    return root


def test_float_shift_passes_with_a_listing(tmp_path, capsys):
    old = _tree(tmp_path / "old", 0.7634409635649884)
    new = _tree(tmp_path / "new", 0.7634409635649897, profile_rows=((0.5, 1.25), (1.0, 2.5000000000000004)))
    assert _load_tool().main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert (
        "dualize-koiso-json-seeddefault/stdout checks[dual-coefficient-variation].measured: "
        "0.7634409635649884 -> 0.7634409635649897" in out
    )
    assert "skrp-koiso-csv-seeddefault/report.profile.csv row 2 (1.0) Q: 2.5 -> 2.5000000000000004" in out
    assert out.splitlines()[-1] == "0 differences, 2 shifted floats"


def test_identical_trees_list_nothing(tmp_path, capsys):
    old, new = _tree(tmp_path / "old", 0.5), _tree(tmp_path / "new", 0.5)
    assert _load_tool().main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "0 differences, 0 shifted floats\n"


def test_status_flip_exits_one(tmp_path, capsys):
    old = _tree(tmp_path / "old", 0.5)
    new = _tree(tmp_path / "new", 0.5, status="fail")
    assert _load_tool().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    flipped = "checks[dual-coefficient-variation].status: 'pass' != 'fail'"
    assert f"DIFF dualize-koiso-json-seeddefault/stdout {flipped}" in out


def test_side_csv_row_count_and_exit_code_changes_exit_one(tmp_path, capsys):
    old = _tree(tmp_path / "old", 0.5)
    new = _tree(tmp_path / "new", 0.5, profile_rows=((0.5, 1.25),))
    (new / "dualize-koiso-json-seeddefault" / "exit").write_text("3")
    assert _load_tool().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "DIFF skrp-koiso-csv-seeddefault/report.profile.csv 2 rows != 1" in out
    assert "DIFF dualize-koiso-json-seeddefault/exit: '0' != '3'" in out
