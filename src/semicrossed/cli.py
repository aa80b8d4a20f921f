"""Batch command line front end.

Config files are line oriented: three section kinds in braces, flat key/value
lines inside.  Exact rationals survive parsing; output is deterministic TSV
so acceptance runs diff cleanly.

    system {
      kind circle
      k 2
    }
    budgets {
      nmax 256
      grid 256
      window 128
      seed 7
    }
    element F {
      term 0 const 1
      term 1 trig 1 (0.5,0) -1 (0.5,0)
    }

Commands: classify, lift, properties, repmat, norm, verify.  Exit status 0
when everything passed, 1 for tolerance failures, 2 for hard errors.
"""

from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .checks import ALL_CHECKS
from .corpus import Budgets, default_samples
from .elements import Element, element, require_semicrossed, to_right_form
from .errors import ConfigError, SemicrossedError
from .extension import (
    AlwaysMin,
    SeededRandom,
    classify_lift,
    lift_point,
    periodic_lift,
    verify_transfer,
)
from .functions import (
    CylinderFunction,
    TabularFunction,
    TrigPoly,
    constant_base,
    ext,
    validate_base,
)
from .norms import semicrossed_norm, _point_label
from .reps import (
    BackwardOrbitRep,
    BilateralWindowRep,
    OrbitTruncation,
    PeriodicOrbitRep,
    rep_matrix,
)
from .systems import (
    CircleTimesK,
    PermutationSystem,
    RationalPoint,
    ShiftOfFiniteType,
    StatePoint,
    System,
    WordPoint,
    classify,
)


@dataclass(frozen=True)
class Config:
    system: System | None
    elements: dict
    budgets: Budgets


# ---------------------------------------------------------------------------
# number / token parsing


def _parse_real(tok: str, where: str) -> float:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return float(Fraction(int(num), int(den)))
        return float(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: bad number {tok!r}")


def _parse_complex(tok: str, where: str) -> complex:
    if tok.startswith("(") and tok.endswith(")"):
        inner = tok[1:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: complex values look like (re,im), got {tok!r}")
        return complex(_parse_real(parts[0], where), _parse_real(parts[1], where))
    return complex(_parse_real(tok, where), 0.0)


def _parse_int(tok: str, where: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"{where}: expected integer, got {tok!r}")


def _value(toks: list[str], i: int, where: str) -> str:
    """toks[i], or ConfigError naming the line that stops short of it."""
    if i >= len(toks):
        raise ConfigError(f"{where}: {' '.join(toks)!r} is missing a value")
    return toks[i]


def _one_value(toks: list[str], where: str) -> str:
    """The value of a key that takes exactly one, or ConfigError naming the line."""
    if len(toks) > 2:
        raise ConfigError(f"{where}: {toks[0]} takes one value, got {' '.join(toks[1:])!r}")
    return _value(toks, 1, where)


def _parse_fraction(tok: str, where: str) -> Fraction:
    """An integer or p/q, or ConfigError naming the token."""
    num, _, den = tok.partition("/")
    den = _parse_int(den, where) if "/" in tok else 1
    if den == 0:
        raise ConfigError(f"{where}: zero denominator in {tok!r}")
    return Fraction(_parse_int(num, where), den)


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = []
        for tok in raw.split():
            if tok.startswith("#"):
                break
            toks.append(tok)
        if toks:
            out.append((lineno, toks))
    return out


# ---------------------------------------------------------------------------
# config sections


def _parse_system(body: list[tuple[int, list[str]]]) -> System:
    kind = None
    k = None
    rows = []
    images = None
    for lineno, toks in body:
        where = f"line {lineno}"
        key = toks[0]
        if key == "kind":
            kind = _one_value(toks, where)
        elif key == "k":
            k = _parse_int(_one_value(toks, where), where)
        elif key == "row":
            rows.append(tuple(_parse_int(t, where) for t in toks[1:]))
        elif key == "images":
            images = tuple(_parse_int(t, where) for t in toks[1:])
        else:
            raise ConfigError(f"{where}: unknown system key {key!r}")
    if kind == "circle":
        if k is None:
            raise ConfigError("system: circle needs k")
        return CircleTimesK(k)
    if kind == "sft":
        if not rows:
            raise ConfigError("system: sft needs row lines")
        return ShiftOfFiniteType(tuple(rows))
    if kind == "permutation":
        if images is None:
            raise ConfigError("system: permutation needs images")
        return PermutationSystem(images)
    raise ConfigError(f"system: unknown kind {kind!r}")


# budgets keys, each also a command line flag, and their Budgets fields
_BUDGET_KEYS = {"seed": "seed", "nmax": "n_max", "grid": "grid_size", "window": "half_width"}


def _parse_budgets(body: list[tuple[int, list[str]]]) -> Budgets:
    vals = {}
    for lineno, toks in body:
        where = f"line {lineno}"
        key = toks[0]
        if key not in _BUDGET_KEYS:
            raise ConfigError(f"{where}: unknown budgets key {key!r}")
        vals[_BUDGET_KEYS[key]] = _parse_int(_one_value(toks, where), where)
    return Budgets(**vals)


def _parse_function(sys_: System, toks: list[str], where: str):
    kind = toks[0]
    rest = toks[1:]
    if kind == "const":
        if len(rest) != 1:
            raise ConfigError(f"{where}: const takes one value")
        return constant_base(sys_, _parse_complex(rest[0], where))
    if kind == "trig":
        if not isinstance(sys_, CircleTimesK):
            raise ConfigError(f"{where}: trig functions need a circle system")
        if len(rest) % 2 != 0 or not rest:
            raise ConfigError(f"{where}: trig takes frequency/value pairs")
        coeffs = {}
        for i in range(0, len(rest), 2):
            coeffs[_parse_int(rest[i], where)] = _parse_complex(rest[i + 1], where)
        return TrigPoly.from_coeffs(coeffs)
    if kind == "cyl":
        if not isinstance(sys_, ShiftOfFiniteType):
            raise ConfigError(f"{where}: cyl functions need an sft system")
        depth = _parse_int(_value(toks, 1, where), where)
        pairs = rest[1:]
        if len(pairs) % 2 != 0 or not pairs:
            raise ConfigError(f"{where}: cyl takes word/value pairs")
        values = {}
        for i in range(0, len(pairs), 2):
            word = tuple(_parse_int(c, where) for c in pairs[i])
            values[word] = _parse_complex(pairs[i + 1], where)
        return CylinderFunction.from_values(depth, values)
    if kind == "tab":
        if not isinstance(sys_, PermutationSystem):
            raise ConfigError(f"{where}: tab functions need a permutation system")
        return TabularFunction(tuple(_parse_complex(t, where) for t in rest))
    raise ConfigError(f"{where}: unknown function kind {kind!r}")


def _parse_element(sys_: System | None, body: list[tuple[int, list[str]]], name: str) -> Element:
    if sys_ is None:
        raise ConfigError(f"element {name}: a system section must come first")
    coeffs = {}
    flag_semicrossed = False
    for lineno, toks in body:
        where = f"line {lineno}"
        if toks[0] == "semicrossed":
            flag_semicrossed = True
            continue
        if toks[0] != "term":
            raise ConfigError(f"{where}: element lines start with term")
        power = _parse_int(_value(toks, 1, where), where)
        rest = toks[2:]
        depth = 1
        if rest and rest[0] == "depth":
            depth = _parse_int(_value(toks, 3, where), where)
            rest = rest[2:]
        if not rest:
            raise ConfigError(f"{where}: term needs a function")
        base = _parse_function(sys_, rest, where)
        validate_base(sys_, base)
        if power in coeffs:
            raise ConfigError(f"{where}: duplicate power {power}")
        coeffs[power] = ext(depth, base)
    el = element(sys_, coeffs)
    if flag_semicrossed:
        require_semicrossed(el)
    return el


def parse_config(text: str) -> Config:
    lines = _tokenize(text)
    i = 0
    system = None
    elements: dict = {}
    budgets = Budgets()
    while i < len(lines):
        lineno, toks = lines[i]
        if toks[-1] != "{":
            raise ConfigError(f"line {lineno}: expected a section opening with '{{'")
        header = toks[:-1]
        body = []
        i += 1
        closed = False
        while i < len(lines):
            ln, tk = lines[i]
            if tk == ["}"]:
                closed = True
                i += 1
                break
            body.append((ln, tk))
            i += 1
        if not closed:
            raise ConfigError(f"line {lineno}: unclosed section")
        if header == ["system"]:
            system = _parse_system(body)
        elif header == ["budgets"]:
            budgets = _parse_budgets(body)
        elif len(header) == 2 and header[0] == "element":
            elements[header[1]] = _parse_element(system, body, header[1])
        else:
            raise ConfigError(f"line {lineno}: unknown section {' '.join(header)!r}")
    return Config(system, elements, budgets)


# ---------------------------------------------------------------------------
# command argument parsing


def _parse_point(sys_: System, tok: str):
    where = f"point {tok!r}"
    if tok.startswith("word:"):
        body = tok[5:]
        if "," not in body:
            raise ConfigError(f"bad word point {tok!r}")
        pre, cyc = body.split(",", 1)
        if not cyc:
            raise ConfigError("word points need a nonempty cycle")
        return WordPoint(*(tuple(_parse_int(c, where) for c in part) for part in (pre, cyc)))
    if tok.startswith("state:"):
        return StatePoint(_parse_int(tok[6:], where))
    return RationalPoint(_parse_fraction(tok, where))


def _parse_chooser(tok: str):
    if tok == "min":
        return AlwaysMin()
    if tok.startswith("seeded:"):
        return SeededRandom(_parse_int(tok.split(":", 1)[1], f"chooser {tok!r}"))
    raise ConfigError(f"unknown chooser {tok!r} (use min or seeded:N)")


def _parse_lambda(tok: str) -> complex:
    if tok.startswith("angle:"):
        turn = _parse_fraction(tok.split(":", 1)[1], f"lambda {tok!r}")
        return complex(np.exp(2j * np.pi * float(turn)))
    return _parse_complex(tok, "lambda")


def _parse_lift(sys_: System, pt_tok: str, chooser_tok: str):
    x = _parse_point(sys_, pt_tok)
    if chooser_tok == "cycle":
        return periodic_lift(sys_, x)
    return lift_point(sys_, x, _parse_chooser(chooser_tok))


def _parse_repspec(sys_: System, tok: str):
    kind, *parts = tok.split(":")
    # word:<pre,cyc> and state:<n> points hold a colon, and so does seeded:N
    cut = 2 if parts and parts[0] in ("word", "state") else 1
    pt, rest = ":".join(parts[:cut]), parts[cut:]
    where = f"rep spec {tok!r}"
    if kind == "orbit" and len(rest) == 1:
        return OrbitTruncation(_parse_point(sys_, pt), _parse_int(rest[0], where))
    if kind == "periodic" and rest:
        return PeriodicOrbitRep(_parse_point(sys_, pt), _parse_lambda(":".join(rest)))
    if kind in ("bilateral", "backward") and len(rest) >= 2:
        lift = _parse_lift(sys_, pt, ":".join(rest[:-1]))
        rep = BilateralWindowRep if kind == "bilateral" else BackwardOrbitRep
        return rep(lift, _parse_int(rest[-1], where))
    raise ConfigError(
        "rep specs: orbit:<pt>:<n> | periodic:<pt>:<lambda> | "
        "bilateral:<pt>:<chooser>:<M> | backward:<pt>:<chooser>:<n>"
    )


# ---------------------------------------------------------------------------
# commands


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _classification_cells(cls) -> list[str]:
    period = str(cls.period) if cls.period else "-"
    pre = str(cls.preperiod) if cls.preperiod else "-"
    return [cls.kind, period, pre]


def _cmd_classify(cfg: Config, args: list[str]) -> tuple[list[list[str]], int]:
    if len(args) != 1:
        raise ConfigError("usage: classify <point>")
    x = _parse_point(cfg.system, args[0])
    cls = classify(cfg.system, x)
    rows = [["point", "kind", "period", "preperiod"]]
    rows.append([_point_label(x)] + _classification_cells(cls))
    return rows, 0


def _cmd_lift(cfg: Config, args: list[str]) -> tuple[list[list[str]], int]:
    if len(args) not in (2, 3):
        raise ConfigError("usage: lift <point> <chooser> [depth]")
    depth = _parse_int(args[2], "lift depth") if len(args) == 3 else 8
    xt = _parse_lift(cfg.system, args[0], args[1])
    rows = [["key", "value"]]
    for j in range(1, depth + 1):
        rows.append([f"coord:{j}", _point_label(xt.coordinate(j))])
    cls = classify_lift(cfg.system, xt, max(depth, 128))
    rows.append(["classification", " ".join(_classification_cells(cls))])
    return rows, 0


def _cmd_properties(cfg: Config, args: list[str]) -> tuple[list[list[str]], int]:
    if args:
        raise ConfigError("properties takes no arguments")
    sys_ = cfg.system
    if isinstance(sys_, ShiftOfFiniteType):
        rows = [["property", "base", "extension"]]
        for prop in ("transitive", "dense_periodic", "minimal", "dense_recurrent"):
            base, extension = verify_transfer(sys_, prop)
            rows.append([prop, str(base).lower(), str(extension).lower()])
        return rows, 0
    rows = [["property", "value"]]
    if isinstance(sys_, CircleTimesK):
        rows.append(["kind", "circle"])
        rows.append(["k", str(sys_.k)])
        rows.append(["invertible", "false"])
    else:
        rows.append(["kind", "permutation"])
        rows.append(["size", str(sys_.size)])
        rows.append(["invertible", "true"])
    return rows, 0


def _get_element(cfg: Config, name: str) -> Element:
    if name not in cfg.elements:
        raise ConfigError(f"no element named {name!r} in the config")
    return cfg.elements[name]


def _cmd_repmat(cfg: Config, args: list[str]) -> tuple[list[list[str]], int]:
    if len(args) != 2:
        raise ConfigError("usage: repmat <rep-spec> <element>")
    spec = _parse_repspec(cfg.system, args[0])
    el = _get_element(cfg, args[1])
    if isinstance(spec, BackwardOrbitRep):
        el = to_right_form(el)
    mat = rep_matrix(cfg.system, spec, el)
    n = mat.shape[0]
    rows = [[f"col{j}" for j in range(n)]]
    for i in range(n):
        rows.append([f"{mat[i, j].real:.6f},{mat[i, j].imag:.6f}" for j in range(n)])
    return rows, 0


def _cmd_norm(cfg: Config, args: list[str]) -> tuple[list[list[str]], int]:
    if len(args) != 1:
        raise ConfigError("usage: norm <element>")
    el = _get_element(cfg, args[0])
    b = cfg.budgets
    points, periodic = default_samples(cfg.system, b)
    est = semicrossed_norm(cfg.system, el, points, periodic, b.n_max, b.grid_size)
    rows = [["record", "param", "value"]]
    for param, value in est.traces:
        rows.append(["trace", param, _fmt(value)])
    rows.append(["summary", "lower", _fmt(est.bracket.lower)])
    rows.append(["summary", "upper", _fmt(est.bracket.upper)])
    rows.append(["summary", "witness", est.witness])
    rows.append(
        ["summary", "budget", f"nmax={b.n_max},grid={b.grid_size},window={b.half_width}"]
    )
    return rows, 0


def _cmd_verify(cfg: Config, args: list[str], strict: bool) -> tuple[list[list[str]], int]:
    if not args:
        raise ConfigError("usage: verify <check>...|all")
    names = list(ALL_CHECKS) if args == ["all"] else args
    for name in names:
        if name not in ALL_CHECKS:
            known = " ".join(ALL_CHECKS)
            raise ConfigError(f"unknown check {name!r}; choose from: {known} all")
    rows = [["check", "case", "status", "detail"]]
    failed = False
    for name in names:
        report = ALL_CHECKS[name](cfg.budgets)
        for row in report.rows:
            status = "pass" if row.passed else "fail"
            rows.append([report.check, row.name, status, row.detail])
            if not row.passed:
                failed = True
                if strict:
                    return rows, 1
    return rows, 1 if failed else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "lift": _cmd_lift,
    "properties": _cmd_properties,
    "repmat": _cmd_repmat,
    "norm": _cmd_norm,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semicrossed",
        description="classification, representation matrices, certified norms, "
        "and the verification suite",
    )
    parser.add_argument("--config", help="config file path")
    for flag in _BUDGET_KEYS:
        parser.add_argument(f"--{flag}", type=int, help=f"override budgets.{flag}")
    parser.add_argument("--out", help="write TSV output to this path")
    parser.add_argument(
        "--strict", action="store_true", help="stop at the first failing verify row"
    )
    parser.add_argument("command", help="classify | lift | properties | repmat | norm | verify")
    parser.add_argument("args", nargs="*", help="command arguments")
    ns = parser.parse_args(argv)

    try:
        if ns.config is not None:
            with open(ns.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = Config(CircleTimesK(2), {}, Budgets())
        flags = {field: getattr(ns, flag) for flag, field in _BUDGET_KEYS.items()}
        overrides = {field: v for field, v in flags.items() if v is not None}
        cfg = replace(cfg, budgets=replace(cfg.budgets, **overrides))

        command = _COMMANDS.get(ns.command)
        if command is None:
            raise ConfigError(f"unknown command {ns.command!r}")
        if command is _cmd_verify:  # the checks build their own systems
            rows, code = _cmd_verify(cfg, ns.args, ns.strict)
        elif cfg.system is None:
            raise ConfigError(f"{ns.command} needs a system section")
        else:
            rows, code = command(cfg, ns.args)
    except (SemicrossedError, ValueError, OSError) as exc:
        _sys.stdout.write(f"error\t{type(exc).__name__}\t{exc}\n")
        return 2

    text = "\n".join("\t".join(cells) for cells in rows) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return code
