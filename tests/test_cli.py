"""End-to-end CLI behavior: formats, exit codes, determinism."""
import argparse
import hashlib
import itertools
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo import cli
from delpezzo.cli import main
from delpezzo.errors import InvalidSurfaceData
from delpezzo.lattice import DivisorClass, PicardLattice, format_rational
from delpezzo.surface import declare_curve, from_description, loads

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_plane_text(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "p2.json"))
    assert code == 0
    assert "klt_any_boundary: True" in out
    assert "consistent: True" in out
    assert "relative to declared catalog" in out


def test_analyze_cubic_reports_weak_only(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "cubic10.json"))
    assert code == 0
    assert "klt_any_boundary: False" in out
    assert "weak_lc_any_boundary: True" in out
    assert "generic point of 'c', mult 1" in out


def test_analyze_json_round_trips_surface(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "f3.json"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["zariski"]["negative"] == [["c0", "1/3"]]
    # the embedded surface description re-parses to the same surface
    reparsed = loads(json.dumps(data["surface"]))
    assert reparsed.rank == data["rank"]


def test_analyze_deterministic_output(capsys):
    _, first, _ = run(capsys, "analyze", str(FIXTURES / "dp3.json"), "--format", "json")
    _, second, _ = run(capsys, "analyze", str(FIXTURES / "dp3.json"), "--format", "json")
    assert first == second


def test_analyze_dot_output(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "f2.json"), "--format", "dot")
    assert code == 0
    assert out.startswith("graph dual {")
    assert '"c0" [label="c0(-2,0)"];' in out


# line_star(5, 1, 1) with a double quote and a backslash in two curve ids
QUOTED_IDS = {
    "base": {"kind": "P2"},
    "curves": [{"id": 'l"x', "class": ["1"], "pa": 0}],
    "blowups": [
        {"point": "p1", "exceptional": "a\\b", "on": [['l"x', 1]]},
        *({"point": f"p{i}", "exceptional": f"e{i}", "on": [['l"x', 1]]} for i in range(2, 6)),
        {"point": "q1", "exceptional": "f1", "on": [["a\\b", 1]]},
    ],
}
DOT_STRING = r'"((?:[^"\\]|\\.)*)"'
DOT_STATEMENT = re.compile(
    rf"graph dual \{{|\}}"
    rf"|  {DOT_STRING} \[label={DOT_STRING}\];"
    rf"|  {DOT_STRING} -- {DOT_STRING} \[label={DOT_STRING}\];"
)


def _unescape(text):
    return re.sub(r"\\(.)", r"\1", text)


def test_dot_output_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(QUOTED_IDS), encoding="utf-8")
    code, analyze_dot, _ = run(capsys, "analyze", str(path), "--format", "dot")
    assert code == 0
    code, classify_dot, _ = run(capsys, "classify", str(path), "--format", "dot")
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    for dot in (analyze_dot, classify_dot, json.loads(out)["dual_graph_dot"]):
        nodes, edges = [], []
        for line in dot.splitlines():
            match = DOT_STATEMENT.fullmatch(line)
            assert match, line
            node, label, a, b, _ = map(lambda g: g and _unescape(g), match.groups())
            if node is not None:
                assert label.startswith(node + "(")
                nodes.append(node)
            if a is not None:
                edges.append((a, b))
        assert nodes == ['l"x', "a\\b"]
        assert edges == [('l"x', "a\\b")]


def test_assert_flag_failure_exit_code(capsys):
    code, _, _ = run(
        capsys,
        "analyze",
        str(FIXTURES / "cubic10.json"),
        "--assert",
        "klt_any_boundary",
    )
    assert code == 1


def test_assert_flag_success(capsys):
    code, _, _ = run(
        capsys,
        "analyze",
        str(FIXTURES / "cubic10.json"),
        "--assert",
        "weak_lc_any_boundary",
    )
    assert code == 0


def loads_message(text: str) -> str:
    with pytest.raises(InvalidSurfaceData) as info:
        loads(text)
    return str(info.value)


def test_malformed_file_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 1" in err
    # the library and the command line word the fault alike
    assert err == f"input error: {bad}: {loads_message('{ not json')}\n"


def test_file_not_utf8_exit_two(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: not UTF-8 text: invalid start byte at byte 0\n"


def test_json_nested_too_deeply_exit_two(capsys, tmp_path):
    text = "[" * 200000 + "]" * 200000
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: invalid JSON: nested too deeply\n"
    assert err == f"input error: {path}: {loads_message(text)}\n"


@pytest.mark.parametrize("field", ["class", "pa"])
def test_json_integer_too_long_exit_two(capsys, tmp_path, field):
    # json.load refuses an int literal longer than str converts
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    fields = {"class": '["1"]', "pa": "0"}
    fields[field] = f"[{digits}]" if field == "class" else digits
    text = (
        '{"base": {"kind": "P2"}, '
        '"curves": [{"id": "l", "class": %(class)s, "pa": %(pa)s}]}' % fields
    )
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: invalid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err == f"input error: {path}: {loads_message(text)}\n"


# the first prints a Hirzebruch invariant of 3001 digits, whose report numbers
# have more; the second a P coordinate whose denominator has about 6000
# digits, from three 2001-digit ones; the third a computed genus in an error
# message
_Q = 10**2000
_TOO_LONG = [
    (
        {"base": {"kind": "hirzebruch", "e": 10**3000}},
        [("analyze", "--format", fmt) for fmt in ("json", "text", "dot")]
        + [("classify", "--format", "json"), ("decompose", "--format", "json")],
        "",
    ),
    (
        {
            "base": {"kind": "P2"},
            "curves": [{"id": "l", "class": ["1"], "pa": 0}],
            "blowups": [{"on": [["l", 1]]}, {"on": [["l", 1]]}],
        },
        [(
            "decompose",
            "--divisor",
            f"{_Q + 4}/{_Q + 3},-{_Q + 3}/{2 * _Q + 2},-{_Q + 4}/{2 * _Q + 4}",
            "--format",
            "json",
        )],
        "",
    ),
    (
        {"base": {"kind": "P2"}, "curves": [{"id": "l", "class": [str(10**3000)], "pa": 0}]},
        [("analyze", "--format", "json"), ("witness",)],
        "{path}: ",
    ),
]


@pytest.mark.parametrize(
    "data,commands,prefix", _TOO_LONG, ids=["hirzebruch_e", "positive_part", "adjunction"]
)
def test_number_too_long_to_print_exit_two(capsys, tmp_path, data, commands, prefix):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    limit = sys.get_int_max_str_digits()
    expected = (
        f"input error: {prefix.format(path=path)}a number has more than "
        f"{limit} digits, too many to print\n"
    )
    for command, *options in commands:
        assert run(capsys, command, str(path), *options) == (2, "", expected), command


def test_missing_field_exit_two(capsys, tmp_path):
    bad = tmp_path / "nobase.json"
    bad.write_text('{"curves": []}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("[]", "surface description [] is not a JSON object"),
        ('"x"', "surface description 'x' is not a JSON object"),
        ('{"base": []}', "base description [] is not a JSON object"),
        # a large value is named cut short, not echoed whole
        (json.dumps([0] * 100000), "surface description [0, 0, 0, 0, 0, 0, ...] is not a JSON object"),
        (json.dumps("x" * 100000), "surface description 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not a JSON object"),
    ],
    ids=["array", "string", "base", "long array", "long string"],
)
def test_surface_that_is_not_an_object_exit_two(capsys, tmp_path, text, message):
    path = tmp_path / "not_an_object.json"
    path.write_text(text)
    assert run(capsys, "analyze", str(path)) == (2, "", f"input error: {path}: {message}\n")


@pytest.mark.parametrize("bad", ["1/0", "abc", [1], True])
def test_malformed_class_coordinate_exit_two(capsys, tmp_path, bad):
    path = tmp_path / "bad_class.json"
    path.write_text(json.dumps({
        "base": {"kind": "P2"},
        "curves": [{"id": "l", "class": [bad], "pa": 0}],
        "blowups": [],
    }))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        f"input error: {path}: curve 'l': class coordinate {bad!r} "
        "is not a rational number\n"
    )


def _line_with_one_blow_up(curve=None, blowup=None, **top):
    data = {
        "base": {"kind": "P2"},
        "curves": [{"id": "l", "class": ["1"], "pa": 0, **(curve or {})}],
        "blowups": [{"point": "p1", "exceptional": "e1", "on": [["l", 1]], **(blowup or {})}],
    }
    return {**data, **top}


@pytest.mark.parametrize(
    "data,message",
    [
        (_line_with_one_blow_up({"pa": "x"}), "curve 'l': pa 'x' is not an integer"),
        (_line_with_one_blow_up({"pa": True}), "curve 'l': pa True is not an integer"),
        (
            _line_with_one_blow_up({"smooth": "false"}),
            "curve 'l': smooth 'false' is not true or false",
        ),
        (_line_with_one_blow_up({"after": "x"}), "curve 'l': after 'x' is not an integer"),
        (
            _line_with_one_blow_up({"after": 99}),
            "curve 'l': after 99 is outside 0..1, the number of blow-ups",
        ),
        (
            _line_with_one_blow_up(blowup={"on": [["l", "x"]]}),
            "blow-up 'p1': multiplicity 'x' is not an integer",
        ),
        (
            _line_with_one_blow_up(blowup={"on": [["l"]]}),
            "blow-up 'p1': incidence ['l'] is not a [curve, multiplicity] pair",
        ),
        (
            _line_with_one_blow_up(blowup={"exceptional": ["e"]}),
            "blow-up 'p1': exceptional ['e'] is not a string",
        ),
        (
            _line_with_one_blow_up(base={"kind": "hirzebruch", "e": "x"}),
            "base: e 'x' is not an integer",
        ),
        (_line_with_one_blow_up(curves="x"), "curves 'x' is not a list"),
        (_line_with_one_blow_up(blowups=[1]), "blowups: entry 1 is not an object"),
        (_line_with_one_blow_up({"class": 5}), "curve 'l': class 5 is not a list"),
        (
            _line_with_one_blow_up({"class": ["1", "0"]}),
            "curve 'l': class has 2 coordinates, surface has rank 1",
        ),
        (_line_with_one_blow_up({"id": 5}), "curve 5: id 5 is not a string"),
        (
            _line_with_one_blow_up(blowup={"on": [[5, 1]]}),
            "blow-up 'p1': curve 5 is not a string",
        ),
        (_line_with_one_blow_up(blowup={"near": 5}), "blow-up 'p1': near 5 is not a string"),
        (_line_with_one_blow_up(blowup={"point": 5}), "blow-up 1: point 5 is not a string"),
    ],
)
def test_malformed_surface_field_exit_two(capsys, tmp_path, data, message):
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: {message}\n"


_LONG, _CUT = "x" * 100000, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
_MANY, _CUT_LIST = [0] * 100000, "[0, 0, 0, 0, 0, 0, ...]"


@pytest.mark.parametrize(
    "data,message",
    [
        (
            _line_with_one_blow_up({"class": [_LONG]}),
            f"curve 'l': class coordinate {_CUT} is not a rational number",
        ),
        (_line_with_one_blow_up({"pa": _LONG}), f"curve 'l': pa {_CUT} is not an integer"),
        (
            _line_with_one_blow_up(blowup={"exceptional": _MANY}),
            f"blow-up 'p1': exceptional {_CUT_LIST} is not a string",
        ),
        (_line_with_one_blow_up(curves=_LONG), f"curves {_CUT} is not a list"),
        (_line_with_one_blow_up(blowups=[_MANY]), f"blowups: entry {_CUT_LIST} is not an object"),
        (
            _line_with_one_blow_up({"smooth": _LONG}),
            f"curve 'l': smooth {_CUT} is not true or false",
        ),
        (
            _line_with_one_blow_up(blowup={"on": [_MANY]}),
            f"blow-up 'p1': incidence {_CUT_LIST} is not a [curve, multiplicity] pair",
        ),
        # a long curve or point id is quoted cut short too
        (
            _line_with_one_blow_up(curves=[{"id": _LONG, "class": ["1"], "pa": 0}] * 2),
            f"curve id {_CUT} already in catalog",
        ),
        (
            _line_with_one_blow_up({"id": _LONG, "class": ["1/2"]}),
            f"class of {_CUT}: coordinate h = 1/2 is not an integer",
        ),
        (
            _line_with_one_blow_up({"id": _LONG, "after": 99}),
            f"curve {_CUT}: after 99 is outside 0..1, the number of blow-ups",
        ),
        (
            _line_with_one_blow_up(blowup={"on": [[_LONG, 1]]}),
            f"blow-up references unknown curve {_CUT}",
        ),
        (
            _line_with_one_blow_up(blowup={"point": _LONG, "on": "x"}),
            f"blow-up {_CUT}: on 'x' is not a list",
        ),
        (_line_with_one_blow_up(base={"kind": _LONG}), f"unknown base kind {_CUT}"),
        (
            ("blowup", str(FIXTURES / "star.json"), "--at", _LONG),
            f"no redundant point matches {_CUT} (known: generic point of 'l', mult 4/3; "
            + "; ".join(f"shared point 'p{i}' of 'l' and 'e{i}', mult 2" for i in range(1, 6))
            + "; shared point 'p6' of 'l' and 'e6', mult 5/3)",
        ),
    ],
    ids=[
        "rational", "int", "name", "list", "list entry", "smooth", "incidence",
        "duplicate id", "class of id", "after of id", "unknown curve", "point id",
        "base kind", "blowup at",
    ],
)
def test_long_offending_value_is_named_cut_short(capsys, tmp_path, data, message):
    if isinstance(data, dict):
        path = tmp_path / "long_field.json"
        path.write_text(json.dumps(data))
        argv, message = ("analyze", str(path)), f"{path}: {message}"
    else:
        argv = data
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert len(err.encode()) < 1024


_DEGREE = (
    "has degree <= 0 on the ample class {} of the base; every curve but the "
    "catalog's exceptional ones has positive degree"
)


@pytest.mark.parametrize(
    "data,declared,message",
    [
        # class 0 meets every curve in 0, and adjunction gives p_a = 1
        (
            {"base": {"kind": "P2"}, "curves": [{"id": _LONG, "class": ["0"], "pa": 1}]},
            ((0,), 1, True),
            f"{_CUT} {_DEGREE.format('h')}",
        ),
        (
            {"base": {"kind": "hirzebruch", "e": 3},
             "curves": [{"id": _LONG, "class": ["0", "0"], "pa": 1}]},
            ((0, 0), 1, True),
            f"{_CUT} {_DEGREE.format('c0 + (|e|+1)f')}",
        ),
        # minus the exceptional curve meets it in 1
        (
            {"base": {"kind": "P2"}, "blowups": [{"point": "p1"}],
             "curves": [{"id": _LONG, "class": ["0", "-1"], "pa": 1, "after": 1}]},
            ((0, -1), 1, True),
            f"{_CUT} {_DEGREE.format('h')}",
        ),
        # a line said singular, through 4 blown-up points
        (
            {"base": {"kind": "P2"},
             "curves": [{"id": _LONG, "class": ["1"], "pa": 0, "smooth": False}],
             "blowups": [{"on": [[_LONG, 1]]}] * 4},
            ((1,), 0, False),
            f"{_CUT} has arithmetic genus 0, so it is smooth; it cannot be declared "
            "not smooth",
        ),
    ],
    ids=["class 0", "class 0 on F3", "minus e1", "singular line"],
)
def test_class_no_curve_has_exit_two(capsys, tmp_path, data, declared, message):
    path = tmp_path / "no_curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", f"input error: {path}: {message}\n")
    assert len(err.encode()) < 1024
    # the same curve declared through the library, on the surface it joins
    after = data["curves"][0].get("after", 0)
    s = from_description({**data, "curves": [], "blowups": data.get("blowups", [])[:after]})
    with pytest.raises(InvalidSurfaceData) as info:
        declare_curve(s, _LONG, *declared)
    assert str(info.value) == message


# every ruled surface over a curve of genus g has e >= -g (Nagata;
# Hartshorne V.2.12.1), so the "negative section" c0^2 = -e is at most g
@pytest.mark.parametrize("genus,e", [(0, -3), (1, -2), (0, -1), (2, -3)])
def test_ruled_base_that_cannot_exist_exit_two(capsys, tmp_path, genus, e):
    path = tmp_path / "ruled.json"
    path.write_text(json.dumps({"base": {"kind": "ruled", "genus": genus, "e": e}}))
    message = "ruled surface invariant e must be >= -genus"
    assert run(capsys, "analyze", str(path)) == (2, "", f"input error: {path}: {message}\n")


@pytest.mark.parametrize("genus,e", [(1, -1), (2, -2), (0, 0)])
def test_ruled_base_at_the_bound_loads(capsys, tmp_path, genus, e):
    path = tmp_path / "ruled.json"
    path.write_text(json.dumps({"base": {"kind": "ruled", "genus": genus, "e": e}}))
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["surface"]["base"] == {"kind": "ruled", "genus": genus, "e": e}


def _renamed(value, names):
    """A JSON value with every string in ``names`` replaced by its image."""
    if isinstance(value, dict):
        return {k: _renamed(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, names) for v in value]
    return names.get(value, value) if isinstance(value, str) else value


def test_blowup_lists_known_points_with_ids_cut_short(capsys, tmp_path):
    # a long curve id is quoted cut short in every listed point
    star = json.loads((FIXTURES / "star.json").read_text(encoding="utf-8"))
    path = tmp_path / "long_line.json"
    path.write_text(json.dumps(_renamed(star, {"l": _LONG})))
    code, out, err = run(capsys, "blowup", str(path), "--at", "nope")
    assert (code, out) == (2, "")
    assert err == (
        f"input error: no redundant point matches 'nope' (known: generic point of {_CUT}, "
        "mult 4/3; "
        + "; ".join(f"shared point 'p{i}' of {_CUT} and 'e{i}', mult 2" for i in range(1, 6))
        + f"; shared point 'p6' of {_CUT} and 'e6', mult 5/3)\n"
    )
    # with every id long, the points that do not fit are counted, not listed
    names = {f"{kind}{i}": f"{kind}{i}" * 50000 for kind in "pe" for i in range(1, 7)}
    names["l"] = _LONG
    path.write_text(json.dumps(_renamed(star, names)))
    code, out, err = run(capsys, "blowup", str(path), "--at", "nope")
    assert (code, out) == (2, "")
    assert "\n" not in err[:-1] and len(err.encode()) < 1024
    assert err.endswith(" more)\n") and err.count("shared point") < 6


def test_missing_surface_file_exit_two(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}: ")


def test_copy_of_negative_curve_exit_two(capsys, tmp_path):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps({
        "base": {"kind": "hirzebruch", "e": 2},
        "curves": [{"id": "copy", "class": ["1", "0"], "pa": 0}],
    }))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        f"input error: {path}: 'copy' would meet 'c0' negatively; "
        "two distinct curves cannot do that\n"
    )


@pytest.mark.parametrize("bad", ["1/0", "abc", ""])
def test_malformed_divisor_coordinate_exit_two(capsys, bad):
    code, out, err = run(
        capsys, "decompose", str(FIXTURES / "f2.json"), "--divisor", f"1,{bad}"
    )
    assert code == 2
    assert out == ""
    assert err == f"input error: --divisor coordinate {bad!r} is not a rational number\n"


def test_empty_divisor_exit_two(capsys):
    code, out, err = run(capsys, "decompose", str(FIXTURES / "f2.json"), "--divisor", "")
    assert code == 2
    assert out == ""
    assert err == "input error: --divisor coordinate '' is not a rational number\n"


def test_decompose_custom_divisor(capsys):
    code, out, _ = run(
        capsys, "decompose", str(FIXTURES / "p2.json"), "--divisor", "3"
    )
    assert code == 0
    assert "P^2 = 9" in out
    assert "ample=True" in out


def test_negative_first_divisor_coordinate_reaches_the_decomposition(capsys):
    # argparse reads "--divisor -1,0" as a missing value; "--divisor=" does not
    code, out, err = run(capsys, "decompose", str(FIXTURES / "f2.json"), "--divisor=-1,0")
    assert (code, out) == (2, "")
    assert err == "error: catalog insufficient or divisor not pseudo-effective\n"


def test_decompose_wrong_length_divisor(capsys):
    code, _, err = run(
        capsys, "decompose", str(FIXTURES / "f2.json"), "--divisor", "1"
    )
    assert code == 2
    assert "coordinates" in err


def test_witness_both_methods(capsys):
    code, direct, _ = run(capsys, "witness", str(FIXTURES / "f3.json"))
    assert code == 0 and "2/3*c0" in direct
    code, cone, _ = run(
        capsys, "witness", str(FIXTURES / "f3.json"), "--method", "cone"
    )
    assert code == 0 and "floor_is_zero=True" in cone


def test_witness_json(capsys):
    code, out, _ = run(
        capsys, "witness", str(FIXTURES / "f2.json"), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["components"] == [["c0", "1/2"]]


def test_blowup_outputs_reparseable_surface(capsys):
    code, out, _ = run(
        capsys, "blowup", str(FIXTURES / "cubic10.json"), "--at", "c"
    )
    assert code == 0
    model = loads(out)
    assert model.rank == 12
    # the new description still round-trips
    from delpezzo.surface import dumps

    assert dumps(model) == out


def test_blowup_unknown_location(capsys):
    code, _, err = run(
        capsys, "blowup", str(FIXTURES / "p2.json"), "--at", "nowhere"
    )
    assert code == 2
    assert "no redundant point" in err


def test_blowup_at_the_rank_cap_exits_two(capsys, tmp_path):
    # line_star(30, 16, 2) is rank 63; one blow-up in general position
    # makes it 64, which loads, but its blow-up at l would not
    from test_analysis import line_star

    data = line_star(30, 16, 2)
    data["blowups"].append({"point": "g", "exceptional": "eg", "on": []})
    path = tmp_path / "rank64.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "analyze", str(path))[0] == 0
    code, out, err = run(capsys, "blowup", str(path), "--at", "l")
    assert (code, out, err) == (
        2, "", "input error: blowup would raise Picard rank 64 to 65, which exceeds the cap 64\n"
    )


def test_classify_f3(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "f3.json"))
    assert code == 0
    assert "c0: KltNonCanonical" in out


def test_classify_nonrational_note(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "elliptic_ruled.json"))
    assert code == 0
    assert "case=1" in out


def test_corpus_deterministic(capsys):
    code, first, _ = run(capsys, "corpus", "--seed", "7", "--count", "5")
    assert code == 0
    code, second, _ = run(capsys, "corpus", "--seed", "7", "--count", "5")
    assert first == second
    assert "inconsistencies=0" in first


# SHA-256 of the stdout of long corpus runs: a random draw that moves, or
# one more or fewer RNG call, changes every later surface
CORPUS_DIGESTS = {
    ("1", "200", "12"): "8b6cbe17bd76ea9a4dc450a50e1b28b3a2661fc84f12ebc0a334bd6d51064dc8",
    ("2", "200", "12"): "200e00d5121a7b2fa86f2404528a4bd516e1fc604cc06903368c8f72a219681e",
    ("3", "200", "12"): "75bdf92196e6c40a0c23f7d53adb58f793c415208bf3bcdebcac8ed8d2bfeb88",
    ("4", "200", "12"): "58fa37a1707579c6f15de50ef880ff072abc80c5ccbd6b60098c2352fdc93fd5",
    ("5", "200", "12"): "b93f54550018b92bf228ba88fc181047acce2ec0e2c69be3e7774021db6839d3",
    ("6", "200", "12"): "3ac15d10707b4df97a9bc2c48c5e32ff2cb0a3d8e2f672dcaf038de67a32f4b6",
    ("7", "200", "12"): "384722502dd456b7edfbf25f36bf39a655d2a5448ee5d76430af12ec00fee00d",
    ("8", "200", "12"): "ca6c544c2b8706d47b17ae58ef21141d5502bcb4fedb5ecfad0d63f2903546ea",
    ("9", "200", "12"): "8889f464bd66de7640d36e0e7cccb46c92aa6cc04b0de541fd442778076932af",
    ("10", "200", "12"): "979fe1f2b03d7d3490bfa93ba86bb5cbc9ecbe9bf6e4cdbe67ebe58fff362955",
    ("3", "50", "20"): "882342ffafba7ada1a32d83b82e7b6d10e7b7960ff45b0a8530427dcfed4a0ca",
    ("11", "30", "2"): "3b713f01a4b0e53bce560358ff8c3e62103875ad7a6379ec6976bffa933153ab",
}


@pytest.mark.parametrize("seed,count,max_rank", sorted(CORPUS_DIGESTS))
def test_corpus_output_is_pinned(capsys, seed, count, max_rank):
    code, out, err = run(
        capsys, "corpus", "--seed", seed, "--count", count, "--max-rank", max_rank
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_DIGESTS[seed, count, max_rank]


def test_corpus_empty(capsys):
    code, out, _ = run(capsys, "corpus", "--seed", "1", "--count", "0")
    assert code == 0
    assert "total=0" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--count", "-3"), "--count -3 is below 0"),
        (("--count", "3", "--max-rank", "65"), "--max-rank 65 is outside 1..64, the rank cap"),
        (("--count", "3", "--max-rank", "-1"), "--max-rank -1 is outside 1..64, the rank cap"),
        (("--count", "10000", "--max-rank", "0"), "--max-rank 0 is outside 1..64, the rank cap"),
    ],
)
def test_corpus_limits_exit_two(capsys, monkeypatch, argv, message):
    # refused before the first draw, so --max-rank 0 exits at once
    monkeypatch.setattr(cli, "run_corpus", lambda *args, **kwargs: pytest.fail("drew"))
    code, out, err = run(capsys, "corpus", "--seed", "1", *argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


# P2 and 64 blow-ups in general position: rank 65, one above the cap
RANK_65 = {
    "base": {"kind": "P2"},
    "blowups": [{"point": f"p{i}", "exceptional": f"e{i}"} for i in range(64)],
}


def test_rank_cap_is_fixed(capsys, monkeypatch, tmp_path):
    # no environment variable lifts the cap
    path = tmp_path / "rank65.json"
    path.write_text(json.dumps(RANK_65))
    monkeypatch.setenv("DELPEZZO_MAX_RANK", "100")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (
        2, "", f"input error: {path}: Picard rank 65 exceeds the cap 64\n"
    )


def catalog_of(size, blowups=63):
    """P2 blown up at ``blowups`` points in general position, then lines
    declared after the blow-ups, each through two of the points, until the
    catalog holds ``size`` curves.  Two distinct pairs of points share at
    most one point, so every two lines meet non-negatively.  With 63
    blow-ups the rank is 64, the rank cap, and every class has the full
    64 coordinates, so each declared line pairs at full length."""
    pairs = itertools.combinations(range(1, blowups + 1), 2)
    lines = [
        {
            "id": f"l{i}_{j}",
            "class": ["1"] + ["-1" if k in (i, j) else "0" for k in range(1, blowups + 1)],
            "pa": 0,
            "after": blowups,
        }
        for i, j in itertools.islice(pairs, size - 1 - blowups)
    ]
    return {
        "base": {"kind": "P2"},
        "curves": lines,
        "blowups": [{"point": f"p{i}", "exceptional": f"e{i}"} for i in range(1, blowups + 1)],
    }


def test_catalog_cap_is_fixed_and_bounds_the_time(capsys, tmp_path):
    # the largest catalog the cap admits, at the rank cap, loads and
    # analyzes in bounded time (about 0.07 s on a 2-CPU x86_64); one more
    # curve is refused before any is declared
    assert cli.MAX_CURVES == 256
    at_cap, over = tmp_path / "at_cap.json", tmp_path / "over.json"
    at_cap.write_text(json.dumps(catalog_of(256)))
    over.write_text(json.dumps(catalog_of(257)))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(at_cap), "--format", "json")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert len(json.loads(out)["surface"]["curves"]) == 256 - 64
    code, out, err = run(capsys, "analyze", str(over))
    assert (code, out, err) == (
        2, "", f"input error: {over}: catalog size 257 exceeds the cap 256\n"
    )


def test_blowup_at_the_catalog_cap_exits_two(capsys, tmp_path):
    # rank 63, so the rank cap admits one more blow-up, but the catalog cap
    # does not
    path = tmp_path / "at_cap.json"
    path.write_text(json.dumps(catalog_of(256, blowups=62)))
    assert run(capsys, "analyze", str(path))[0] == 0
    code, out, err = run(capsys, "blowup", str(path), "--at", "l1_2")
    assert (code, out, err) == (
        2, "", "input error: blowup would raise the catalog size 256 to 257, "
        "which exceeds the cap 256\n"
    )


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ("corpus", "--seed", "1", "--count", "0"),
        ("analyze", str(FIXTURES / "p2.json")),
        ("decompose", str(FIXTURES / "p2.json"), "--format", "json"),
    ):
        assert run(capsys, *argv)[0] == 0
    # the top-level parser and one per subcommand, all from the first call
    assert len(built) == 7


def test_command_is_looked_up_when_called(capsys, monkeypatch):
    assert run(capsys, "analyze", str(FIXTURES / "p2.json"))[0] == 0
    seen = []

    def replacement(args):
        seen.append(args.file)
        return 42

    monkeypatch.setattr(cli, "cmd_analyze", replacement)
    assert run(capsys, "analyze", "any.json") == (42, "", "")
    assert seen == ["any.json"]


def _exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


# SHA-256 of `delpezzo --help` at 80 columns under Python 3.11's argparse
HELP_SHA256 = "ce660233093b7522ffb227e3d7d94f99de07528d08ee54c0b5999defd67508c5"


@pytest.mark.parametrize(
    "argv", [("--help",), ("analyze", "--help"), ("analyze",), ("nonsense",), ()]
)
def test_reused_parser_repeats_help_and_usage_errors(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    first = _exit(capsys, *argv)
    assert _exit(capsys, *argv) == first
    code, out, err = first
    if "--help" in argv:
        assert code == 0 and err == "" and out.startswith("usage: delpezzo")
    else:
        assert code == 2 and out == "" and err.startswith("usage: delpezzo")
    if argv == ("--help",):
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_SHA256


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
)
def test_class_strings_format_each_coordinate(nums, factor, den):
    # a common factor of the numerators and the denominator cancels
    lattice = PicardLattice(("h",) + tuple(f"e{i}" for i in range(1, len(nums))), ((1,),))
    d = DivisorClass(lattice, [Fraction(v * factor, den) for v in nums])
    assert cli._class_strings(d) == [format_rational(x) for x in d.coords]
