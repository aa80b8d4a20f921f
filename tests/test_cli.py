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


def test_demo_sft_norm_golden(capsys):
    # a band-1 cylinder element on the golden mean shift, whose upper end is
    # the pivot-graph certificate
    code, out = run_cli(capsys, "--config", str(DATA / "demo_sft.cfg"), "norm", "S")
    assert code == 0
    assert out == (DATA / "demo_sft_norm_S.tsv").read_text()


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
    for text, line in [
        ("system {\n kind circle\n k 2\n flavor mild\n}\n", "line 4"),
        ("system {\n kind circle\n k 2\n}\nbudgets {\n tolerance 1e-9\n}\n", "line 6"),
    ]:
        cfg.write_text(text)
        code, out = run_cli(capsys, "--config", str(cfg), "classify", "0/1")
        assert code == 2
        assert line in out
        assert "ConfigError" in out


@pytest.mark.parametrize(
    "text, row",
    [
        ("system {\n kind circle\n k\n}\n", "line 3: 'k'"),
        ("budgets {\n nmax\n}\n", "line 2: 'nmax'"),
        ("budgets {\n nmax 16\n grid\n}\n", "line 3: 'grid'"),
        ("budgets {\n window\n}\n", "line 2: 'window'"),
        ("budgets {\n seed\n}\n", "line 2: 'seed'"),
        ("system {\n kind circle\n k 2\n}\nelement F {\n term\n}\n", "line 6: 'term'"),
        ("system {\n kind circle\n k 2\n}\nelement F {\n term 0 depth\n}\n", "line 6: 'term 0 depth'"),
        ("system {\n kind sft\n row 1 1\n row 1 0\n}\nelement F {\n term 0 cyl\n}\n", "line 7: 'cyl'"),
    ],
    ids=["k", "nmax", "grid", "window", "seed", "term", "term-depth", "term-cyl"],
)
def test_config_line_without_value(capsys, tmp_path, text, row):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    code, out = run_cli(capsys, "--config", str(cfg), "verify", "transfer")
    assert code == 2
    assert out == f"error\tConfigError\t{row} is missing a value\n"


@pytest.mark.parametrize(
    "text, row",
    [
        ("system {\n kind circle\n k 2 3\n}\n", "line 3: k takes one value, got '2 3'"),
        ("budgets {\n nmax 16 99\n}\n", "line 2: nmax takes one value, got '16 99'"),
        ("budgets {\n nmax 16\n grid 16 8\n}\n", "line 3: grid takes one value, got '16 8'"),
        ("budgets {\n window 8 x\n}\n", "line 2: window takes one value, got '8 x'"),
        ("budgets {\n seed 7 7\n}\n", "line 2: seed takes one value, got '7 7'"),
    ],
    ids=["k", "nmax", "grid", "window", "seed"],
)
def test_config_line_with_extra_value(capsys, tmp_path, text, row):
    # trailing tokens were dropped: `k 2 3` built x -> 2x
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text)
    code, out = run_cli(capsys, "--config", str(cfg), "verify", "transfer")
    assert code == 2
    assert out == f"error\tConfigError\t{row}\n"


def test_cylinder_word_not_an_integer(capsys, tmp_path):
    cfg = tmp_path / "cyl.cfg"
    cfg.write_text(
        "system {\n kind sft\n row 1 1\n row 1 0\n}\nelement S {\n term 0 cyl 1 0 1 x 2\n}\n"
    )
    code, out = run_cli(capsys, "--config", str(cfg), "classify", "word:,0")
    assert code == 2
    assert out == "error\tConfigError\tline 7: expected integer, got 'x'\n"


@pytest.mark.parametrize(
    "args, row",
    [
        (["lift", "1/3", "min", "x"], "lift depth: expected integer, got 'x'"),
        (["classify", "1/x"], "point '1/x': expected integer, got 'x'"),
        (["repmat", "orbit:1/3:q", "F"], "rep spec 'orbit:1/3:q': expected integer, got 'q'"),
        (["lift", "1/3", "seeded:x"], "chooser 'seeded:x': expected integer, got 'x'"),
        (
            ["repmat", "periodic:1/3:angle:1/x", "F"],
            "lambda 'angle:1/x': expected integer, got 'x'",
        ),
    ],
    ids=["lift-depth", "point", "repspec", "chooser", "lambda"],
)
def test_command_argument_not_an_integer(capsys, demo_cfg, args, row):
    # each printed an untyped ValueError from a bare int() that named no argument
    code, out = run_cli(capsys, "--config", demo_cfg, *args)
    assert code == 2
    assert out == f"error\tConfigError\t{row}\n"


def test_budgets_out_of_range_row(capsys, tmp_path):
    code, out = run_cli(capsys, "--nmax", "2", "verify", "transfer")
    assert code == 2
    assert out == "error\tConfigError\tbudgets out of range\n"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("budgets {\n grid 4\n}\n")
    code, out = run_cli(capsys, "--config", str(cfg), "verify", "transfer")
    assert code == 2
    assert out == "error\tConfigError\tbudgets out of range\n"


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


@pytest.fixture
def no_system_cfg(tmp_path):
    path = tmp_path / "nosys.cfg"
    path.write_text("budgets {\n  nmax 16\n}\n")
    return str(path)


@pytest.mark.parametrize("command", ["classify", "lift", "properties", "repmat", "norm"])
def test_command_needs_system_section(capsys, no_system_cfg, command):
    # the system check comes before each command's own argument checks
    code, out = run_cli(capsys, "--config", no_system_cfg, command)
    assert code == 2
    assert out == f"error\tConfigError\t{command} needs a system section\n"


def test_unknown_command_row(capsys, no_system_cfg):
    # an unknown command is reported before a missing system section
    code, out = run_cli(capsys, "--config", no_system_cfg, "bogus")
    assert code == 2
    assert out == "error\tConfigError\tunknown command 'bogus'\n"


def test_verify_needs_no_system(capsys, no_system_cfg):
    code, out = run_cli(capsys, "--config", no_system_cfg, "verify", "transfer")
    assert code == 0
    assert out.startswith("check\tcase\tstatus\tdetail\ntransfer\t")


def test_verify_small_budget_failure(capsys):
    code, out = run_cli(capsys, "--grid", "8", "--nmax", "16", "verify", "norm-families")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "check\tcase\tstatus\tdetail"
    assert any("\tfail\t" in line for line in lines[1:])
    # captured before the estimators and the oracle shared work across samples
    assert out == (DATA / "verify_norm_families_g8_n16.tsv").read_text()


def test_verify_periodic_vector_golden(capsys):
    # captured while the orbit side still took the dense n x n orbit matrix
    code, out = run_cli(capsys, "--seed", "7", "verify", "periodic-vector")
    assert code == 0
    assert out == (DATA / "verify_periodic_vector_seed7.tsv").read_text()


def test_verify_covariance_pushdown_golden(capsys):
    # captured while the backward layout read its own orbit and the cycles
    # summed lambda-power groups; pins both at the ulp level
    code, out = run_cli(capsys, "--seed", "7", "verify", "covariance", "pushdown")
    assert code == 0
    assert out == (DATA / "verify_covariance_pushdown_seed7.tsv").read_text()


def test_verify_lift_bilateral_nest_golden(capsys):
    # captured while periodic_lift took a step budget, classify_lift read a
    # chooser flag, bilateral_orbit_check a size and the nest-tails test a
    # tolerance argument
    code, out = run_cli(
        capsys, "--seed", "7", "verify", "periodic-lift", "bilateral-orbit", "nest-tails"
    )
    assert code == 0
    assert out == (DATA / "verify_lift_bilateral_nest_seed7.tsv").read_text()


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
