import subprocess
import sys
from pathlib import Path

import pytest

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
