import subprocess
import sys
from pathlib import Path

import pytest

from semicrossed import (
    SeededRandom,
    StatePoint,
    WordPoint,
    backward_matrix,
    bilateral_matrix,
    lift_point,
    orbit_matrix,
    periodic_matrix,
    rational,
    to_right_form,
)
from semicrossed.cli import main, parse_config

DEMO = """
system {
  kind circle
  k 2
}
budgets {
  nmax 32
  grid 32
  window 16
  seed 7
}
element F {
  term 0 const 1
  term 1 trig 1 (0.5,0) -1 (0.5,0)
}
element G {
  term 1 const 1
}
"""


@pytest.fixture
def demo_cfg(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO)
    return str(path)


DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_readme_demo_norm_golden(capsys):
    # the README's `semicrossed --config demo.cfg norm F`, pinned to its output
    code, out = run_cli(capsys, "--config", str(DATA / "demo.cfg"), "norm", "F")
    assert code == 0
    assert out == (DATA / "demo_norm_F.tsv").read_text()


@pytest.mark.parametrize(
    "system",
    ["kind circle\n  k 2", "kind sft\n  row 1 1\n  row 1 0", "kind permutation\n  images 1 2 0"],
    ids=["circle", "sft", "permutation"],
)
def test_norm_zero_element(tmp_path, capsys, system):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        f"system {{\n  {system}\n}}\nbudgets {{\n  nmax 16\n  grid 16\n  window 8\n  seed 7\n}}\n"
        "element Z {\n  term 0 const 0\n}\n"
    )
    code, out = run_cli(capsys, "--config", str(cfg), "norm", "Z")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    summary = {row[1]: row[2] for row in rows if row[0] == "summary"}
    assert float(summary["lower"]) == float(summary["upper"]) == 0.0


@pytest.mark.parametrize(
    "spec",
    ["orbit:1/7:6", "periodic:1/7:angle:1/3", "bilateral:1/5:min:3", "backward:1/3:min:5"],
)
def test_readme_demo_repmat_golden(capsys, spec):
    # one golden table per layout, captured before the chain/cycle placements
    code, out = run_cli(capsys, "--config", str(DATA / "demo.cfg"), "repmat", spec, "F")
    assert code == 0
    assert out == (DATA / f"demo_repmat_{spec.split(':')[0]}.tsv").read_text()


@pytest.mark.parametrize("kind", ["bilateral", "backward"])
def test_repmat_seeded_chooser(capsys, kind):
    cfg = parse_config((DATA / "demo.cfg").read_text())
    code, out = run_cli(
        capsys, "--config", str(DATA / "demo.cfg"), "repmat", f"{kind}:1/3:seeded:5:2", "F"
    )
    assert code == 0
    lift = lift_point(cfg.system, rational(1, 3), SeededRandom(5))
    el = cfg.elements["F"]
    if kind == "bilateral":
        want = bilateral_matrix(cfg.system, lift, el, 2)
    else:
        want = backward_matrix(cfg.system, lift, to_right_form(el), 2)
    assert out.splitlines()[1:] == _cells(want)


def _cells(mat):
    return ["\t".join(f"{v.real:.6f},{v.imag:.6f}" for v in row) for row in mat]


def test_repmat_word_and_state_points(capsys, tmp_path):
    # word:<pre,cyc> and state:<n> points hold a colon inside the rep spec
    gm = tmp_path / "gm.cfg"
    gm.write_text(
        "system {\n kind sft\n row 1 1\n row 1 0\n}\n"
        "element W {\n term 0 cyl 1 0 0.5 1 (0,1)\n term 2 const 1\n}\n"
    )
    cfg = parse_config(gm.read_text())
    code, out = run_cli(capsys, "--config", str(gm), "repmat", "orbit:word:,01:5", "W")
    assert code == 0
    want = orbit_matrix(cfg.system, WordPoint((), (0, 1)), cfg.elements["W"], 5)
    assert out.splitlines()[1:] == _cells(want)

    perm = tmp_path / "perm.cfg"
    perm.write_text(
        "system {\n kind permutation\n images 1 2 0\n}\n"
        "element W {\n term 0 tab 1 2 3\n term 1 const 1\n}\n"
    )
    cfg = parse_config(perm.read_text())
    code, out = run_cli(capsys, "--config", str(perm), "repmat", "periodic:state:0:angle:1/4", "W")
    assert code == 0
    want = periodic_matrix(cfg.system, StatePoint(0), 1j, cfg.elements["W"])
    assert out.splitlines()[1:] == _cells(want)


def test_parse_config_roundtrip():
    cfg = parse_config(DEMO)
    assert cfg.system.k == 2
    assert cfg.budgets.n_max == 32
    assert set(cfg.elements) == {"F", "G"}
    assert cfg.elements["G"].powers == (1,)


def test_classify_output(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "classify", "1/3")
    assert code == 0
    assert out == "point\tkind\tperiod\tpreperiod\n1/3\tperiodic\t2\t-\n"


def test_classify_eventually_periodic(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "classify", "5/6")
    assert code == 0
    assert out.splitlines()[1] == "5/6\teventually-periodic\t2\t1"


def test_lift_output(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "lift", "1/7", "cycle", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "coord:1\t1/7"
    assert lines[2] == "coord:2\t4/7"
    assert lines[3] == "coord:3\t2/7"
    assert lines[4] == "coord:4\t1/7"
    assert lines[5] == "classification\tperiodic 3 -"


def test_repmat_output(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "repmat", "orbit:1/3:3", "G")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "col0\tcol1\tcol2"
    assert lines[1] == "0.000000,0.000000\t0.000000,0.000000\t0.000000,0.000000"
    assert lines[2] == "1.000000,0.000000\t0.000000,0.000000\t0.000000,0.000000"


def test_repmat_periodic_angle(capsys, demo_cfg):
    code, out = run_cli(
        capsys, "--config", demo_cfg, "repmat", "periodic:1/3:angle:1/2", "G"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split("\t")[1] == "-1.000000,0.000000"


def test_norm_summary(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "norm", "F")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "record\tparam\tvalue"
    assert "summary\tlower\t2.000000" in lines
    assert "summary\tupper\t2.000000" in lines
    assert "summary\twitness\tperiodic" in lines
    assert any(line.startswith("trace\torbit n=4\t") for line in lines)


def test_determinism(capsys, demo_cfg):
    _, first = run_cli(capsys, "--config", demo_cfg, "norm", "F")
    _, second = run_cli(capsys, "--config", demo_cfg, "norm", "F")
    assert first == second


def test_out_flag(capsys, demo_cfg, tmp_path):
    dest = tmp_path / "table.tsv"
    code, out = run_cli(capsys, "--config", demo_cfg, "--out", str(dest), "classify", "1/3")
    assert code == 0
    assert out == ""
    _, direct = run_cli(capsys, "--config", demo_cfg, "classify", "1/3")
    assert dest.read_text() == direct


def test_properties_sft(capsys, tmp_path):
    cfg = tmp_path / "gm.cfg"
    cfg.write_text("system {\n kind sft\n row 1 1\n row 1 0\n}\n")
    code, out = run_cli(capsys, "--config", str(cfg), "properties")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "property\tbase\textension"
    assert "transitive\ttrue\ttrue" in lines
    assert "minimal\tfalse\tfalse" in lines


def test_zero_column_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("system {\n kind sft\n row 1 0\n row 1 0\n}\n")
    code, out = run_cli(capsys, "--config", str(cfg), "properties")
    assert code == 2
    assert "InvalidMatrix" in out
    assert "column 1" in out


def test_negative_power_flagged(capsys, tmp_path):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(
        "system {\n kind circle\n k 2\n}\n"
        "element H {\n semicrossed\n term -1 const 1\n}\n"
    )
    code, out = run_cli(capsys, "--config", str(cfg), "norm", "H")
    assert code == 2
    assert "NotSemicrossed" in out


def test_norm_overflow_is_typed(capsys, tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "system {\n kind circle\n k 2\n}\nbudgets {\n nmax 16\n grid 16\n window 8\n seed 7\n}\n"
        "element B {\n term 0 const 1e308\n term 1 const 1e308\n}\n"
    )
    code, out = run_cli(capsys, "--config", str(cfg), "norm", "B")
    assert code == 2
    assert out.startswith("error\tNonFinite\t")


def test_unknown_key_line_number(capsys, tmp_path):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("system {\n kind circle\n k 2\n flavor mild\n}\n")
    code, out = run_cli(capsys, "--config", str(cfg), "classify", "0/1")
    assert code == 2
    assert "line 4" in out


def test_unclosed_section(capsys, tmp_path):
    cfg = tmp_path / "open.cfg"
    cfg.write_text("system {\n kind circle\n k 2\n")
    code, out = run_cli(capsys, "--config", str(cfg), "classify", "0/1")
    assert code == 2
    assert "unclosed" in out


def test_verify_unknown_token(capsys):
    code, out = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown check" in out


def test_verify_small_budget_failure(capsys):
    code, out = run_cli(capsys, "--grid", "8", "--nmax", "16", "verify", "norm-families")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "check\tcase\tstatus\tdetail"
    assert any("\tfail\t" in line for line in lines[1:])


def test_verify_strict_stops_early(capsys):
    code, out = run_cli(
        capsys, "--grid", "8", "--nmax", "16", "--strict", "verify", "norm-families"
    )
    assert code == 1
    lines = out.splitlines()
    assert "\tfail\t" in lines[-1]
    assert all("\tfail\t" not in line for line in lines[:-1])


def test_verify_passing_checks(capsys):
    code, out = run_cli(capsys, "verify", "transfer")
    assert code == 0
    assert all("\tpass\t" in line for line in out.splitlines()[1:])


def test_module_entry_point(demo_cfg):
    proc = subprocess.run(
        [sys.executable, "-m", "semicrossed", "--config", demo_cfg, "classify", "1/3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1/3\tperiodic\t2\t-"


def test_missing_element(capsys, demo_cfg):
    code, out = run_cli(capsys, "--config", demo_cfg, "norm", "Z")
    assert code == 2
    assert "no element named" in out


def test_word_point_parsing(capsys, tmp_path):
    cfg = tmp_path / "gm.cfg"
    cfg.write_text("system {\n kind sft\n row 1 1\n row 1 0\n}\n")
    code, out = run_cli(capsys, "--config", str(cfg), "classify", "word:001,0")
    assert code == 0
    assert out.splitlines()[1] == "001(0)\teventually-periodic\t1\t3"
