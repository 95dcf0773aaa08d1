"""Schema fuzz: mutated surface files and --divisor strings never crash.

Each example takes a committed fixture, changes one or two fields at any
depth (a new value of any JSON type, or a deleted key or entry) and runs
the CLI in process.  Whatever the input, the command must end with exit 0,
2 or 3 and must not raise: a traceback is a bug.
"""
import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delpezzo import cli

FIXTURES = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).parent.parent / "fixtures").glob("*.json"))
}
EXIT_CODES = {0, 2, 3}

names = st.sampled_from(["h", "c0", "f", "c", "l", "e1", "e2", "p1", "x", ""])
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    names,
    st.sampled_from(["1/2", "-3", "1/0", "abc", "2/-4", " 7 ", "1e3"]),
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)


def _fields(node, name="", path=()):
    """(field name, path) for every position below the root of a JSON
    document; a list entry is named after its list, as ``on[]``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        field = key if isinstance(node, dict) else f"{name}[]"
        yield field, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, field, path + (key,))


@st.composite
def mutated_fixtures(draw):
    document = json.loads(json.dumps(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        # every field name is as likely as any other, however often it occurs
        paths = {}
        for field, path in _fields(document):
            paths.setdefault(field, []).append(path)
        path = draw(st.sampled_from(paths[draw(st.sampled_from(sorted(paths)))]))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return document


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=mutated_fixtures())
def test_mutated_surface_file_never_crashes(document, tmp_path):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = run_cli("analyze", str(path), "--format", "json")
    assert code in EXIT_CODES
    assert "Traceback" not in err


divisor_strings = st.one_of(
    st.text(alphabet="0123456789-/, ", max_size=12),
    st.lists(
        st.sampled_from(["0", "1", "-2", "3/2", "1/0", "", " ", "x", "-", "2/"]),
        min_size=1,
        max_size=4,
    ).map(",".join),
    st.text(max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)), divisor=divisor_strings)
def test_divisor_string_never_crashes(name, divisor):
    path = Path(__file__).parent.parent / "fixtures" / f"{name}.json"
    code, err = run_cli("decompose", str(path), f"--divisor={divisor}")
    assert code in EXIT_CODES
    assert "Traceback" not in err
