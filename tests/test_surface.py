"""Surface construction, blow-up calculus, and serialization."""
import json
import random
import sys
import threading
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import surfaces
import delpezzo
from delpezzo import cli, corpus, lattice
from delpezzo.errors import IncompatibleSurfaces, InvalidSurfaceData
from delpezzo.lattice import DivisorClass, PicardLattice, format_rational
from delpezzo.pairs import AnticanonicalAnalysis, check_EP_condition, redundant_blow_up
from delpezzo.singular import is_snc_configuration
from delpezzo.surface import (
    MAX_CURVES,
    BaseSurface,
    BlowUpRecord,
    _Stage,
    _input_list,
    _input_object,
    _input_name,
    arithmetic_genus,
    blow_up,
    build_base,
    declare_curve,
    dumps,
    extend_to,
    from_description,
    input_int,
    input_rational,
    json_text,
    loads,
    to_description,
)
from delpezzo.zariski import zariski_decompose
from test_analysis import line_star
from test_cli import QUOTED_IDS, RANK_65, catalog_of


def test_projective_plane_base():
    s = build_base("P2")
    assert s.rank == 1
    assert s.canonical.coords == (Q(-3),)
    h = s.class_of([("h", 1)])
    assert h.square == 1
    assert arithmetic_genus(s, h) == 0


def test_hirzebruch_two_base():
    s = build_base("hirzebruch", e=2)
    assert s.canonical.coords == (Q(-2), Q(-4))
    c0 = s.class_of([("c0", 1)])
    f = s.class_of([("f", 1)])
    assert c0.square == -2 and f.square == 0 and c0.dot(f) == 1
    # adjunction oracle on both seed curves
    assert oracles.adjunction_genus(c0.square, s.canonical.dot(c0)) == 0
    assert oracles.adjunction_genus(f.square, s.canonical.dot(f)) == 0
    assert s.anticanonical.dot(c0) == 0


def test_elliptic_ruled_base():
    s = build_base("ruled", e=0, genus=1)
    assert s.canonical.coords == (Q(-2), Q(0))
    f = s.class_of([("f", 1)])
    assert s.anticanonical.dot(f) == 2
    assert s.curve("c0").p_a == 1
    assert not s.rational


def test_invalid_bases_rejected():
    with pytest.raises(InvalidSurfaceData):
        build_base("hirzebruch", e=-1)
    with pytest.raises(InvalidSurfaceData):
        build_base("K3")


def test_declare_curve_accepts_consistent_genus():
    s = build_base("P2")
    s = declare_curve(s, "line", (1,), 0)
    s = declare_curve(s, "cubic", (3,), 1)
    assert s.curve("cubic").p_a == 1


def test_declare_curve_rejects_adjunction_violation():
    s = build_base("P2")
    with pytest.raises(InvalidSurfaceData, match="computed p_a=0"):
        declare_curve(s, "bad", (2,), 3)


def test_blow_up_point_on_line():
    s = build_base("P2")
    s = blow_up(s, BlowUpRecord("p1", incidences=(("h", 1),)))
    assert s.rank == 2
    line = s.class_of([("h", 1)])
    assert line.square == 0
    assert s.canonical.coords == (Q(-3), Q(1))
    e = s.curve("e1")
    assert s.class_of([("e1", 1)]).square == -1 and e.p_a == 0


def test_blow_up_point_on_cubic_keeps_genus():
    s = build_base("P2")
    s = declare_curve(s, "c", (3,), 1)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("c", 1),)))
    c = s.curve("c")
    assert s.class_of([("c", 1)]).square == 8
    assert c.p_a == 1
    assert c.provenance == "strict-transform"


def test_blow_up_free_point_changes_nothing_else():
    s = build_base("P2")
    s = declare_curve(s, "c", (3,), 1)
    s = blow_up(s, BlowUpRecord("p1"))
    assert s.class_of([("c", 1)]).coords == (Q(3), Q(0))
    assert s.rank == 2


def test_blow_up_node_multiplicity_two():
    s = build_base("P2")
    s = declare_curve(s, "nodal", (3,), 1, smooth=False)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("nodal", 2),)))
    c = s.curve("nodal")
    assert c.p_a == 0
    assert s.class_of([("nodal", 1)]).square == 9 - 4
    # adjunction still holds
    assert arithmetic_genus(s, s.class_of([("nodal", 1)])) == 0
    # an integral curve of arithmetic genus 0 is smooth rational
    assert c.smooth and is_snc_configuration(s, ("nodal",))
    assert loads(dumps(s)).curve("nodal").smooth


def test_point_through_a_curve_and_its_exceptional_clears_their_shared_point():
    s = build_base("P2")
    s = declare_curve(s, "c", (3,), 1, smooth=False)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("c", 2),)))
    assert s.incidence == {("c", "e1"): "p1"}
    # the exceptional side has multiplicity 1, so the point is used up
    s = blow_up(s, BlowUpRecord("p2", incidences=(("c", 1), ("e1", 1))))
    assert ("c", "e1") not in s.incidence
    assert s.incidence[("c", "e2")] == "p2"
    assert s.incidence == {("c", "e2"): "p2", ("e1", "e2"): "p2"}
    assert s.class_of([("c", 1)]).dot(s.class_of([("e1", 1)])) == 1


@pytest.mark.parametrize(
    "rec,message",
    [
        (BlowUpRecord("p3", (("x", 1),)), "unknown curve"),
        (BlowUpRecord("p1", (("l", 1),)), "already used"),
        (BlowUpRecord("p3", (("l", 1),), exceptional_id="e1"), "already in use"),
        (BlowUpRecord("p3", (("l", 2),)), "declared smooth"),
        # the strict transforms of the cubic and the line now meet once
        (BlowUpRecord("p3", (("nodal", 2), ("l", 1))), "intersection numbers permit"),
    ],
)
def test_rejected_blow_up_leaves_the_stage_unchanged(rec, message):
    # a stage grows in place, so a record must be refused before any write
    stage = _Stage(BaseSurface("P2"))
    stage.declare("nodal", (Q(3),), 1, False)
    stage.declare("l", (Q(1),), 0, True)
    for point in ("p1", "p2"):
        stage.blow_up(BlowUpRecord(point, (("nodal", 1), ("l", 1))))
    before = _model_fields(stage.model())
    with pytest.raises(InvalidSurfaceData, match=message):
        stage.blow_up(rec)
    assert _model_fields(stage.model()) == before


def test_multiplicity_two_on_smooth_curve_rejected():
    s = build_base("P2")
    s = declare_curve(s, "conic", (2,), 0)
    with pytest.raises(InvalidSurfaceData, match="smooth"):
        blow_up(s, BlowUpRecord("p1", incidences=(("conic", 2),)))


def test_local_intersection_bound_enforced():
    s = build_base("P2")
    s = declare_curve(s, "a", (1,), 0)
    s = declare_curve(s, "b", (1,), 0)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("a", 1), ("b", 1))))
    # strict transforms are now disjoint: no second shared point exists
    with pytest.raises(InvalidSurfaceData, match="intersection numbers"):
        blow_up(s, BlowUpRecord("p2", incidences=(("a", 1), ("b", 1))))


def test_canonical_is_pullback_plus_exceptional():
    s = build_base("P2")
    before = s.canonical
    s2 = blow_up(s, BlowUpRecord("p1", incidences=(("h", 1),)))
    lifted = extend_to(before, s2)
    e = s2.class_of([("e1", 1)])
    assert s2.canonical == lifted + e
    # verified against every catalog curve
    for record in s2.catalog:
        c = s2.class_of([(record.curve_id, 1)])
        assert s2.canonical.dot(c) == (lifted + e).dot(c)


def test_strict_transform_intersections_drop_by_products():
    s = build_base("P2")
    s = declare_curve(s, "a", (2,), 0)
    s = declare_curve(s, "b", (1,), 0)
    old = s.class_of([("a", 1)]).dot(s.class_of([("b", 1)]))
    s = blow_up(s, BlowUpRecord("p1", incidences=(("a", 1), ("b", 1))))
    new = s.class_of([("a", 1)]).dot(s.class_of([("b", 1)]))
    assert new == old - 1


def test_adjunction_invariant_through_tower():
    s, chain = surfaces.exceptional_chain((2, 3, 4))
    for record in s.catalog:
        assert arithmetic_genus(s, s.class_of([(record.curve_id, 1)])) == record.p_a
    weights = [-s.class_of([(c, 1)]).square for c in chain]
    assert weights == [2, 3, 4]


def test_rank_grows_by_one_per_blow_up():
    s = build_base("P2")
    for i in range(4):
        assert s.rank == 1 + i
        s = blow_up(s, BlowUpRecord(f"p{i+1}"))
    assert s.rank == 5


def test_triple_incident_blow_up_allowed():
    # three concurrent lines are expressible exactly because the shared
    # point is blown up in the same record
    s = build_base("P2")
    for i in "abc":
        s = declare_curve(s, i, (1,), 0)
    s = blow_up(
        s, BlowUpRecord("p1", incidences=(("a", 1), ("b", 1), ("c", 1)))
    )
    cls = {cid: s.class_of([(cid, 1)]) for cid in "abc"}
    assert cls["a"].dot(cls["b"]) == 0
    assert cls["a"].dot(s.class_of([("e1", 1)])) == 1


def test_infinitely_near_point_requires_exceptional():
    s = build_base("P2")
    s = declare_curve(s, "a", (1,), 0)
    with pytest.raises(InvalidSurfaceData, match="infinitely-near"):
        blow_up(s, BlowUpRecord("p1", near="a"))


def test_round_trip_is_lossless_and_canonical():
    for name, builder in surfaces.FIXTURES.items():
        s = builder()
        text = dumps(s)
        reparsed = loads(text)
        assert to_description(reparsed) == to_description(s), name
        assert dumps(reparsed) == text, name
        # canonical: keys sorted
        assert text.index('"base"') < text.index('"blowups"') < text.index('"curves"')


# strings reach every escape: quotes, backslashes, control and non-ASCII
# characters, astral ones included
_JSON_STRINGS = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€😀') | st.characters(), max_size=8)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | _JSON_STRINGS
    # string-only lists, such as a class, which json_text writes in one join
    | st.lists(_JSON_STRINGS, min_size=1, max_size=6)
    | st.lists(_JSON_STRINGS, min_size=1, max_size=6).map(tuple),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=24,
)


@given(_JSON_VALUES)
def test_json_text_is_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.0, Q(1, 2), [{"a": [0.5]}], {1: "a"}, {"a": {None: 1}}, {True: 0}, {1, 2},
        # a list that starts with a string leaves its one join for the item loop
        ["a", 1.5], ("a", Q(1, 2)),
    ],
)
def test_json_text_refuses_inexact_values(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_round_trip_preserves_catalog():
    s = surfaces.meeting_negative_pair()
    r = loads(dumps(s))
    assert r.curve_ids() == s.curve_ids()
    for a, b in zip(r.catalog, s.catalog):
        assert a.sparse == b.sparse
        assert a.p_a == b.p_a and a.smooth == b.smooth


def test_max_rank_cap():
    with pytest.raises(InvalidSurfaceData) as info:
        loads(json.dumps(RANK_65))
    assert str(info.value) == "Picard rank 65 exceeds the cap 64"


def test_catalog_cap():
    assert delpezzo.MAX_CURVES == MAX_CURVES == 256
    s = from_description(catalog_of(256))
    assert (len(s.catalog), s.rank) == (256, 64)
    # a smaller rank leaves room for more declared curves, up to the same cap
    assert len(from_description(catalog_of(256, blowups=30)).catalog) == 256
    for data in (catalog_of(257), catalog_of(257, blowups=30)):
        # refused before the first curve is read: a malformed one is not seen
        data["curves"][0]["class"] = "nope"
        with pytest.raises(InvalidSurfaceData) as info:
            from_description(data)
        assert str(info.value) == "catalog size 257 exceeds the cap 256"


def test_curve_declared_after_blow_up_round_trips():
    s = build_base("P2")
    s = blow_up(s, BlowUpRecord("p1"))
    # strict transform of a conic through the blown-up point
    s = declare_curve(s, "conic", (2, -1), 0)
    s = blow_up(s, BlowUpRecord("p2", incidences=(("conic", 1),)))
    text = dumps(s)
    assert '"after": 1' in text
    reparsed = loads(text)
    assert to_description(reparsed) == to_description(s)
    assert reparsed.class_of([("conic", 1)]).coords == (Q(2), Q(-1), Q(-1))


@pytest.mark.parametrize("seed", range(12))
def test_blow_up_lifts_classes_by_one_coordinate(seed):
    # random blow-up sequences drawn the way the corpus draws them; each
    # step is checked against DivisorClass arithmetic on the new lattice
    rng = random.Random(seed)
    s = corpus._random_base(rng).model()
    for index in range(1, 9):
        drawn = corpus._random_record(rng, _Stage.of(s), index)
        if drawn is None:
            continue
        t = blow_up(s, drawn)
        rec = t.blowups[-1]
        exc = t.lattice.basis_class(rec.exceptional_id)
        mults = dict(rec.incidences)
        for old in s.catalog:
            lifted = extend_to(s.class_of([(old.curve_id, 1)]), t)
            expected = lifted - exc.scale(mults.get(old.curve_id, 0))
            assert t.class_of([(old.curve_id, 1)]) == expected
        assert t.class_of([(rec.exceptional_id, 1)]) == exc
        assert t.canonical == extend_to(s.canonical, t) + exc
        for record in t.catalog:
            assert arithmetic_genus(t, t.class_of([(record.curve_id, 1)])) == record.p_a
        s = t


def _plane(curves=(), blowups=()):
    return {"base": {"kind": "P2"}, "curves": list(curves), "blowups": list(blowups)}


LINE = {"id": "l", "class": ["1"], "pa": 0}
# the class h - e1 of a line through the first blown-up point
THROUGH_P1 = {"class": ["1", "-1"], "pa": 0, "after": 1}


@pytest.mark.parametrize(
    "data,message",
    [
        (_plane([LINE, LINE]), "curve id 'l' already in catalog"),
        (
            _plane([{"id": "q", "class": ["2"], "pa": 1}]),
            "adjunction violation for 'q': declared p_a=1, computed p_a=0",
        ),
        (
            _plane([{"id": "q", "class": ["4"], "pa": 0}]),
            "adjunction violation for 'q': declared p_a=0, computed p_a=3",
        ),
        (
            _plane([{"id": "x", "class": ["0", "2"], "pa": -2, "after": 1}], [{}]),
            "negative arithmetic genus for 'x'",
        ),
        (
            _plane([{"id": "x", "class": ["3", "1"], "pa": 0, "after": 1}], [{}]),
            "'x' would meet 'e1' negatively; two distinct curves cannot do that",
        ),
        (_plane([], [{"on": [["z", 1]]}]), "blow-up references unknown curve 'z'"),
        (_plane([], [{"on": [["h", 0]]}]), "multiplicities must be integers >= 1"),
        (_plane([], [{"on": [["h", 1], ["h", 1]]}]), "curve 'h' listed twice in one record"),
        (_plane([], [{"near": "z"}]), "infinitely-near target 'z' not in catalog"),
        (_plane([], [{"near": "h"}]), "infinitely-near points must sit on an exceptional curve"),
        (_plane([], [{"point": "p"}, {"point": "p"}]), "point id 'p' already used"),
        (_plane([], [{"exceptional": "h"}]), "exceptional id 'h' already in use"),
        (
            _plane([], [{"on": [["h", 2]]}]),
            "curve 'h' is declared smooth; multiplicity 2 requires a singular point",
        ),
        (
            _plane([{"id": "c", "class": ["3"], "pa": 1, "smooth": False}], [{"on": [["c", 3]]}]),
            "multiplicity 3 exceeds what the genus of 'c' permits",
        ),
        (
            # two lines through p1 meet nowhere else, so not at a second point
            _plane(
                [{"id": "x", **THROUGH_P1}, {"id": "y", **THROUGH_P1}],
                [{}, {"on": [["x", 1], ["y", 1]]}],
            ),
            "multiplicity exceeds what intersection numbers permit: 'x'.'y' = 0 < 1",
        ),
        (
            # a second curve in the class of the (-2)-section meets it in -2
            {
                "base": {"kind": "hirzebruch", "e": 2},
                "curves": [{"id": "copy", "class": ["1", "0"], "pa": 0}],
            },
            "'copy' would meet 'c0' negatively; two distinct curves cannot do that",
        ),
        (
            _plane([{"id": "q", "class": ["1/2"], "pa": 0}]),
            "class of 'q': coordinate h = 1/2 is not an integer",
        ),
        (
            # (3h - E)/2 passes adjunction and the meeting test, but no curve
            # has a non-integral class
            _plane([{"id": "x", "class": ["3/2", "-1/2"], "pa": 0, "after": 1}], [{}]),
            "class of 'x': coordinate h = 3/2 is not an integer",
        ),
        (
            # a blown-up line is a strict transform, not an exceptional curve
            _plane([LINE], [{"on": [["l", 1]]}, {"near": "l"}]),
            "infinitely-near points must sit on an exceptional curve",
        ),
    ],
)
def test_rejected_description_names_its_fault(data, message):
    with pytest.raises(InvalidSurfaceData) as info:
        from_description(data)
    assert str(info.value) == message


def _stepwise_from_description(data):
    """The reference route: a description replayed one step at a time
    through the public ``build_base``, ``declare_curve`` and ``blow_up``,
    with a whole model after every step.  It reads fields with the loader's
    own input helpers, so both routes fail alike on a malformed field."""
    data = _input_object(data, "surface description")
    try:
        base = _input_object(data["base"], "base description")
        kind = base["kind"]
    except KeyError as exc:
        raise InvalidSurfaceData(f"missing base description: {exc}") from None
    s = build_base(
        kind,
        e=input_int(base.get("e", 0), "base: e"),
        genus=input_int(base.get("genus", 0), "base: genus"),
    )
    curves = _input_list(data.get("curves", []), "curves", of_objects=True)
    blowups = _input_list(data.get("blowups", []), "blowups", of_objects=True)
    if s.rank + len(blowups) > 64:
        raise InvalidSurfaceData(f"Picard rank {s.rank + len(blowups)} exceeds the cap 64")
    afters = []
    for entry in curves:
        after = input_int(entry.get("after", 0), f"curve {entry.get('id')!r}: after")
        if not 0 <= after <= len(blowups):
            raise InvalidSurfaceData(
                f"curve {entry.get('id')!r}: after {after} is outside "
                f"0..{len(blowups)}, the number of blow-ups"
            )
        afters.append(after)

    def declare_pending(after):
        nonlocal s
        for entry, declared_after in zip(curves, afters):
            if declared_after == after:
                where = f"curve {entry.get('id')!r}:"
                coords = tuple(
                    input_rational(x, f"{where} class coordinate")
                    for x in _input_list(entry["class"], f"{where} class")
                )
                if len(coords) != s.rank:
                    raise InvalidSurfaceData(
                        f"{where} class has {len(coords)} "
                        f"coordinates, surface has rank {s.rank}"
                    )
                smooth = entry.get("smooth", True)
                if not isinstance(smooth, bool):
                    raise InvalidSurfaceData(f"{where} smooth {smooth!r} is not true or false")
                s = declare_curve(
                    s,
                    _input_name(entry["id"], f"{where} id"),
                    DivisorClass(s.lattice, coords),
                    input_int(entry["pa"], f"{where} pa"),
                    smooth,
                )

    try:
        declare_pending(0)
        for i, entry in enumerate(blowups):
            point = _input_name(entry.get("point"), f"blow-up {i + 1}: point", True)
            point_id = point or f"p{i + 1}"
            where = f"blow-up {point_id!r}:"
            incidences = []
            for pair in _input_list(entry.get("on", []), f"{where} on"):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise InvalidSurfaceData(
                        f"{where} incidence {pair!r} is not a [curve, multiplicity] pair"
                    )
                cid, mult = pair
                incidences.append(
                    (_input_name(cid, f"{where} curve"), input_int(mult, f"{where} multiplicity"))
                )
            rec = BlowUpRecord(
                point_id=point_id,
                incidences=tuple(incidences),
                near=_input_name(entry.get("near"), f"{where} near", True),
                exceptional_id=_input_name(
                    entry.get("exceptional"), f"{where} exceptional", True
                ),
            )
            s = blow_up(s, rec)
            declare_pending(i + 1)
    except KeyError as exc:
        raise InvalidSurfaceData(f"malformed surface description: missing {exc}") from None
    return s


def _model_fields(s):
    """Everything a model holds, with the incidence map in insertion order."""
    return (
        [
            (r.curve_id, r.sparse, r.p_a, r.smooth, r.provenance)
            for r in s.catalog
        ],
        (s.canonical.nums, s.canonical.den),
        list(s.incidence.items()),
        s.lattice,
        s.blowups,
        s.declarations,
        to_description(s),
    )


def _outcome(load, data):
    try:
        return _model_fields(load(data))
    except InvalidSurfaceData as exc:
        return str(exc)


def _random_description(seed):
    """A corpus surface, sometimes over a nodal cubic blown up at its node,
    plus copies of catalog curves declared ``after`` some blow-ups with their
    class at that stage."""
    rng = random.Random(seed)
    s = corpus._random_base(rng).model()
    if s.base.kind == "P2" and rng.randrange(3) == 0:
        s = declare_curve(s, "nodal", (3,), 1, smooth=False)
        s = blow_up(s, BlowUpRecord("node", (("nodal", 2),)))
    stages = [s]
    for index in range(rng.randrange(10)):
        rec = corpus._random_record(rng, _Stage.of(s), index + 1)
        if rec is not None:
            s = blow_up(s, rec)
        stages.append(s)
    data = to_description(s)
    for copy in range(rng.randrange(4)):
        stage = stages[rng.randrange(len(stages))]
        record = stage.catalog[rng.randrange(len(stage.catalog))]
        data["curves"].append({
            "id": f"copy{copy}",
            "class": [format_rational(x) for x in stage.class_of([(record.curve_id, 1)]).coords],
            "pa": record.p_a,
            "smooth": record.smooth,
            "after": len(stage.blowups),
        })
    return data


def _mutated(rng, document):
    """``document`` with one to three fields, at any depth, deleted or
    replaced by a value from a small pool of plausible and implausible ones."""
    pool = [None, True, 0, 1, 2, -1, 3, 99, 1.5, "h", "c", "l", "e1", "p1", "x", "",
            "1/2", "1/0", "abc", [], {}, ["l", 2], ["1"], [["h", 1]]]
    document = json.loads(json.dumps(document))
    for _ in range(rng.randint(1, 3)):
        paths = []
        stack = [((), document)]
        while stack:
            path, node = stack.pop()
            for key, value in node.items() if isinstance(node, dict) else enumerate(node):
                paths.append(path + (key,))
                if isinstance(value, (dict, list)):
                    stack.append((path + (key,), value))
        if not paths:
            break
        path = rng.choice(paths)
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if rng.randrange(3) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(pool)
    return document


FIXTURE_DOCUMENTS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).parent.parent / "fixtures").glob("*.json"))
]
LINE_STARS = ((6, 4, 2), (10, 5, 1), (36, 2, 2), (56, 2, 3), (20, 10, 2), (30, 16, 2), (10, 6, 3))


def test_one_pass_loader_matches_stepwise_replay():
    documents = FIXTURE_DOCUMENTS + [line_star(*spec) for spec in LINE_STARS]
    documents += [_random_description(seed) for seed in range(60)]
    features = set()
    for data in documents:
        expected = _outcome(_stepwise_from_description, data)
        assert _outcome(from_description, data) == expected
        if isinstance(expected, str):
            continue
        features.update(
            feature
            for feature, present in (
                ("after", any(c.get("after") for c in data["curves"])),
                ("near", any("near" in b for b in data["blowups"])),
                ("multiplicity 2", any(m == 2 for b in data["blowups"] for _, m in b["on"])),
            )
            if present
        )
    assert features == {"after", "near", "multiplicity 2"}


def test_both_loaders_reject_mutated_fixtures_alike():
    rng = random.Random(6)
    messages = set()
    for _ in range(400):
        data = _mutated(rng, rng.choice(FIXTURE_DOCUMENTS))
        expected = _outcome(_stepwise_from_description, data)
        assert _outcome(from_description, data) == expected
        if isinstance(expected, str):
            messages.add(expected.split(" ")[0])
    # the mutations reach more than one kind of fault
    assert len(messages) > 5


BENCHMARK_LINE_STARS = ((6, 4, 2), (10, 5, 1), (36, 2, 2), (56, 2, 3))


def corpus_head(seed, count=10, max_rank=12):
    """The first ``count`` surfaces ``corpus --seed`` keeps, drawn as it
    draws them."""
    rng = random.Random(seed)
    kept = []
    while len(kept) < count:
        s = corpus.random_surface(rng, max_rank)
        if s is not None:
            kept.append(s)
    return kept


def fixture_models():
    return [
        loads(path.read_text(encoding="utf-8"))
        for path in sorted((Path(__file__).parent.parent / "fixtures").glob("*.json"))
    ]


def test_intersection_table_matches_dense_oracle():
    models = fixture_models() + [from_description(line_star(*spec)) for spec in BENCHMARK_LINE_STARS]
    models += corpus_head(1) + corpus_head(2)
    for s in models:
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        ids = s.curve_ids()
        coords = [oracles.dense_coords(s.rank, s.curve(cid).sparse) for cid in ids]
        expected = [tuple(oracles.dense_pairing(rows, a, b) for b in coords) for a in coords]
        for cid, row in zip(ids, expected):
            assert s.meets(cid) == row
        # a reordered block reads the right entries of the rows
        order = list(reversed(range(len(ids))))
        matrix = s.gram_of(ids[k] for k in order)
        assert matrix.entries == tuple(tuple(expected[i][j] for j in order) for i in order)
        # one matrix is kept per curve set: the same ids give the same
        # object back, other ids their own entries
        assert s.gram_of(ids[k] for k in order) is matrix
        for k, cid in enumerate(ids):
            assert s.gram_of((cid,)).entries == ((expected[k][k],),)

        def oracle_degrees(d):
            return tuple(oracles.dense_pairing(rows, d.coords, b) for b in coords)

        def degrees(d):
            return tuple(Q(v, d.den) for v in s.degrees(d))

        minus_k = s.anticanonical
        positive = zariski_decompose(s, minus_k).positive
        # the one remembered scan is replaced as the scanned class changes
        for d in (minus_k, positive, minus_k, positive):
            assert degrees(d) == oracle_degrees(d)


def assert_rows_and_scans_match_dense_oracle(s):
    """Every table row, the nonzero entries kept for it, and the scans of
    -K and of its positive part, against the dense pairing.  The nonzero
    entries are asked for before some rows and after others."""
    rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
    coords = [oracles.dense_coords(s.rank, r.sparse) for r in s.catalog]
    for k, (r, a) in enumerate(zip(s.catalog, coords)):
        expected = tuple(oracles.dense_pairing(rows, a, b) for b in coords)
        if k % 2:
            assert s.meets(r.curve_id) == expected
        nonzero = [j for j, v in enumerate(expected) if v]
        assert s.nonzeros(k) == (tuple(nonzero), tuple(expected[j] for j in nonzero))
        assert s.meets(r.curve_id) == expected
    minus_k = s.anticanonical
    for d in (minus_k, zariski_decompose(s, minus_k).positive):
        expected = tuple(oracles.dense_pairing(rows, d.coords, b) for b in coords)
        assert tuple(Q(v, d.den) for v in s.degrees(d)) == expected


def test_rows_and_scans_read_at_nonzeros_match_dense_oracle():
    # rows and scans read the column index; reversing the catalog reorders
    # every column
    models = fixture_models() + corpus_head(1) + corpus_head(2)
    models += [from_description(line_star(*spec)) for spec in BENCHMARK_LINE_STARS]
    for s in models:
        assert_rows_and_scans_match_dense_oracle(s)
        assert_rows_and_scans_match_dense_oracle(
            surfaces.rebuilt(s, order=s.curve_ids()[::-1])
        )


def test_remembered_gram_matrix_survives_concurrent_readers():
    # more threads than cores, each asking one model for its own curve set,
    # with a short switch interval: every reader gets its own set's matrix,
    # whatever matrices the other threads are adding
    s = from_description(line_star(6, 4, 2))
    ids = s.curve_ids()
    wanted = [ids[k:k + 2] for k in range(0, len(ids), 2)]
    expected = {block: s.gram_of(block).entries for block in wanted}
    start, wrong = threading.Barrier(len(wanted)), []

    def read(block):
        start.wait(timeout=60)
        for _ in range(2000):
            matrix = s.gram_of(block)
            if matrix.curve_ids != block or matrix.entries != expected[block]:
                wrong.append(block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(block,)) for block in wanted]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_gram_matrix_is_kept_per_curve_set(monkeypatch):
    # asking for A, then B, then A again gives A's first matrix back, and
    # its elimination is not run again
    eliminated = []
    bareiss = lattice._bareiss
    monkeypatch.setattr(lattice, "_bareiss", lambda e: eliminated.append(len(e)) or bareiss(e))
    s = surfaces.negative_star()
    ids = s.curve_ids()
    a, b = ids[:2], ids[1:]
    first = s.gram_of(a)
    lattice.is_negative_definite(first)
    lattice.is_negative_definite(s.gram_of(b))
    again = s.gram_of(a)
    assert again is first
    lattice.is_negative_definite(again)
    assert eliminated == [len(a), len(b)]


def test_degrees_refuse_a_class_of_another_surface():
    s, other = surfaces.hirzebruch(2), surfaces.hirzebruch(3)
    with pytest.raises(IncompatibleSurfaces):
        s.degrees(other.anticanonical)


def off_diagonal_models():
    """A Hirzebruch and a ruled surface whose classes use both c0 and f, so
    scans read the base block's off-diagonal c0.f = 1."""
    hirzebruch = declare_curve(surfaces.hirzebruch(1), "s", (1, 1), 0)
    hirzebruch = blow_up(hirzebruch, BlowUpRecord("p1", (("c0", 1), ("f", 1))))
    hirzebruch = blow_up(hirzebruch, BlowUpRecord("p2", (("s", 1),)))
    ruled = blow_up(surfaces.elliptic_ruled(1), BlowUpRecord("p1", (("c0", 1), ("f", 1))))
    ruled = blow_up(ruled, BlowUpRecord("p2", (("e1", 1),), near="e1"))
    return [hirzebruch, ruled]


def test_scans_of_a_constructed_model_match_dense_oracle():
    models = fixture_models() + [from_description(line_star(*spec)) for spec in BENCHMARK_LINE_STARS]
    models += off_diagonal_models()
    fractional = 0
    for s in models:
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        ids = s.curve_ids()
        # the original model scans first, so a catalog kept per lattice
        # (the two models' lattices are equal) would be read in a stale order
        s.meets(ids[0])
        rebuilt = surfaces.rebuilt(s, order=ids[::-1])
        catalog = rebuilt.catalog
        assert catalog == s.catalog[::-1]
        coords = [oracles.dense_coords(rebuilt.rank, r.sparse) for r in catalog]

        def oracle_degrees(d):
            return tuple(oracles.dense_pairing(rows, d.coords, b) for b in coords)

        def degrees(d):
            return tuple(Q(v, d.den) for v in rebuilt.degrees(d))

        minus_k = s.anticanonical
        assert degrees(minus_k) == oracle_degrees(minus_k)
        for r, a in zip(catalog, coords):
            assert rebuilt.meets(r.curve_id) == s.meets(r.curve_id)[::-1]
            assert rebuilt.meets(r.curve_id) == tuple(
                oracles.dense_pairing(rows, a, b) for b in coords
            )
        positive = zariski_decompose(rebuilt, minus_k).positive
        fractional += positive.den > 1
        assert degrees(positive) == oracle_degrees(positive)
    assert fractional > 0


def test_corpus_builds_one_lattice_per_candidate(monkeypatch):
    # each draw grows on one stage: no model, and so no lattice, per blow-up
    lattices, draws = [], []
    original = PicardLattice.__init__
    draw = corpus._random_analysis

    def counting(self, *args):
        lattices.append(self)
        original(self, *args)

    def counted(rng, max_rank):
        draws.append(max_rank)
        return draw(rng, max_rank)

    monkeypatch.setattr(PicardLattice, "__init__", counting)
    monkeypatch.setattr(corpus, "_random_analysis", counted)
    assert corpus.run_corpus(1, 20).count == 20
    assert len(draws) == 22
    assert len(lattices) == 22


def _stage_and_stepwise(rng, max_rank):
    """One corpus candidate built twice from the same draws: grown on one
    stage as ``_random_analysis`` grows it, and replayed step by step with
    the public ``declare_curve`` and ``blow_up``, each record drawn from a
    stage copied from the current model by a second generator in the same
    state.  Every base has rank at most 2, so the draw has room."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    stage = corpus._random_base(rng)
    corpus._random_base(twin)
    room = max_rank - len(stage.labels)
    base = stage.base
    s = build_base(base.kind, e=base.e, genus=base.genus)
    for decl in stage.declarations:
        s = declare_curve(s, decl.curve_id, decl.coords, decl.p_a, decl.smooth)
    steps = rng.randrange(room + 1)
    assert twin.randrange(room + 1) == steps
    for index in range(1, steps + 1):
        rec = corpus._random_record(rng, stage, index)
        assert corpus._random_record(twin, _Stage.of(s), index) == rec
        if rec is not None:
            stage.blow_up(rec)
            s = blow_up(s, rec)
    assert twin.getstate() == rng.getstate()
    return stage.model(), s


@pytest.mark.parametrize("max_rank", [2, 12, 20])
def test_corpus_stage_matches_stepwise_blow_ups(max_rank):
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(5):
            staged, stepwise = _stage_and_stepwise(rng, max_rank)
            assert _model_fields(staged) == _model_fields(stepwise)


def curve_after_blow_up():
    """A curve declared after the first blow-up, so its record has
    ``"after": 1``, then one declared after the second, and a blow-up at
    a point infinitely near the last exceptional curve."""
    s = blow_up(build_base("P2"), BlowUpRecord("p1"))
    s = declare_curve(s, "conic", (2, -1), 0)
    s = blow_up(s, BlowUpRecord("p2", incidences=(("conic", 1),)))
    s = declare_curve(s, "line", (1, 0, -1), 0)
    return blow_up(s, BlowUpRecord("q", near="e2"))


# QUOTED_IDS with ids that hold a non-ASCII letter and control characters,
# which json.dumps writes as \u escapes
UNUSUAL_IDS = dict(
    QUOTED_IDS,
    curves=QUOTED_IDS["curves"] + [{"id": "r\u00e9seau", "class": ["1"], "pa": 0}],
    blowups=QUOTED_IDS["blowups"]
    + [{"point": "\x01", "exceptional": "\u00f1\x1f", "on": [["r\u00e9seau", 1]]}],
)


def echo_models():
    """Models that reach every branch of the surface echo: the fixtures
    (with ruled bases), the head of three corpora above the default rank
    cap (with ``near`` records and Hirzebruch bases), a curve declared
    after a blow-up, and ids that need escapes."""
    sample = [s for seed in (1, 2, 3) for s in corpus_head(seed, max_rank=40)]
    assert any(r.near is not None for s in sample for r in s.blowups)
    models = fixture_models() + sample + [
        curve_after_blow_up(),
        from_description(QUOTED_IDS),
        from_description(UNUSUAL_IDS),
    ]
    assert {s.base.kind for s in models} == {"P2", "hirzebruch", "ruled"}
    return models


def test_surface_echo_is_json_dumps_of_its_description():
    for s in echo_models():
        expected = json.dumps(to_description(s), sort_keys=True, indent=2)
        assert json_text(s) == expected
        assert dumps(s) == expected + "\n"
    assert '"after": 2' in dumps(curve_after_blow_up())
    assert "\\u00f1\\u001f" in dumps(from_description(UNUSUAL_IDS))


def test_analyze_report_echoes_the_surface_description(capsys, tmp_path):
    for k, s in enumerate([*fixture_models()[:3], curve_after_blow_up(),
                           from_description(UNUSUAL_IDS)]):
        path = tmp_path / f"surface{k}.json"
        path.write_text(dumps(s), encoding="utf-8")
        assert cli.main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["surface"] == to_description(s)


def assert_rows_match_dense(s):
    """Each record holds its class's nonzeros at ascending positions, as
    ``dual_entries`` reads them, and every table row matches the dense
    pairing of the classes that those nonzeros write out."""
    for r in s.catalog:
        positions, values = r.sparse
        assert list(positions) == sorted(set(positions)) and all(values)
    rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
    coords = [oracles.dense_coords(s.rank, r.sparse) for r in s.catalog]
    for r, a in zip(s.catalog, coords):
        expected = tuple(oracles.dense_pairing(rows, a, b) for b in coords)
        assert s.meets(r.curve_id) == expected


def builder_models():
    """One model from each builder: ``build_base``, ``declare_curve``,
    ``blow_up``, ``loads``, a ``corpus`` draw, a ``check_EP_condition``
    resolution and a ``redundant_blow_up`` model."""
    base = build_base("hirzebruch", e=1)
    declared = declare_curve(base, "s", (1, 1), 0)
    blown = blow_up(declared, BlowUpRecord("p1", (("c0", 1), ("f", 1))))
    check = check_EP_condition(surfaces.hirzebruch(3), (), (BlowUpRecord("p1", (("c0", 1),)),))
    analysis = AnticanonicalAnalysis(surfaces.meeting_negative_pair())
    return [
        base, declared, blown, loads(dumps(blown)), corpus_head(1, count=1)[0], check.resolved,
        redundant_blow_up(analysis, analysis.redundant_points[0]).model,
    ]


def test_stage_hands_over_its_sparse_rows():
    models = fixture_models() + [s for seed in (1, 2, 3) for s in corpus_head(seed, max_rank=40)]
    for s in models + builder_models():
        assert_rows_match_dense(s)


def test_every_builder_hands_over_k_squared():
    models = fixture_models() + corpus_head(1) + corpus_head(2) + builder_models()
    models += [from_description(line_star(*spec)) for spec in BENCHMARK_LINE_STARS]
    for s in models:
        kind, k = s.base.kind, len(s.blowups)
        rows = oracles.dense_gram(kind, s.base.e, k)
        assert s.canonical_square == oracles.quadratic_form(rows, s.canonical.coords)
        base_square = 9 if kind == "P2" else 8 * (1 - s.base.genus)
        assert s.canonical_square == base_square - k


def test_sparse_rows_follow_each_step_of_a_chain():
    # build_base, declare_curve and blow_up: each later step copies the
    # model's rows onto a stage
    steps = [build_base("hirzebruch", e=1)]
    steps.append(declare_curve(steps[-1], "s", (1, 1), 0))
    steps.append(blow_up(steps[-1], BlowUpRecord("p1", (("c0", 1), ("f", 1)))))
    steps.append(declare_curve(steps[-1], "t", (1, 2, -1), 0))
    steps.append(blow_up(steps[-1], BlowUpRecord("p2", (("s", 1), ("t", 1)))))
    steps.append(blow_up(steps[-1], BlowUpRecord("p3", near="e2")))
    steps.append(blow_up(steps[-1], BlowUpRecord("p4", (("e3", 1),))))
    for s in steps:
        assert_rows_match_dense(s)


def test_hand_built_model_reads_its_sparse_rows_off_the_classes():
    for s in fixture_models() + off_diagonal_models():
        rebuilt = surfaces.rebuilt(s, order=s.curve_ids()[::-1])
        assert_rows_match_dense(rebuilt)
        # a stage made from it starts from those rows
        grown = blow_up(rebuilt, BlowUpRecord("extra"))
        assert_rows_match_dense(grown)


@st.composite
def small_stages(draw):
    """P2 or F1 with a nodal anticanonical curve ``c`` declared (genus 1, so
    it admits a double point), then up to four blow-ups, each free or at a
    point of one catalog curve."""
    kind = draw(st.sampled_from(("P2", "hirzebruch")))
    s = build_base(kind, e=0 if kind == "P2" else 1)
    s = declare_curve(s, "c", (3,) if kind == "P2" else (2, 3), 1, smooth=False)
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        on = draw(st.sampled_from((None, *s.curve_ids())))
        s = blow_up(s, BlowUpRecord(f"p{i + 1}", () if on is None else ((on, 1),)))
    return s


def oracle_stage(s):
    """The dense Gram matrix, K and an ample class of ``s``'s base, written
    out from the surface conventions, and its catalog's classes written out
    from the records."""
    k = len(s.blowups)
    rows = oracles.dense_gram(s.base.kind, s.base.e, k)
    if s.base.kind == "P2":
        canonical, ample = (-3,) + (1,) * k, (1,) + (0,) * k
    else:  # F1: K = -2c0 - 3f, and c0 + 2f is ample
        canonical, ample = (-2, -3) + (1,) * k, (1, 2) + (0,) * k
    classes = {r.curve_id: oracles.dense_coords(s.rank, r.sparse) for r in s.catalog}
    return rows, canonical, ample, classes


def refusal(build) -> str:
    """The loader's message when ``build()`` is refused, else ''."""
    try:
        build()
    except InvalidSurfaceData as exc:
        return str(exc)
    return ""


@given(small_stages(), st.data())
def test_declare_refuses_where_the_oracle_pairings_say(s, data):
    rows, canonical, ample, classes = oracle_stage(s)
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=s.rank, max_size=s.rank))
    # C^2 + K.C is even; the genus is the adjunction genus or one off it
    twice = oracles.dense_pairing(rows, coords, coords) + oracles.dense_pairing(
        rows, canonical, coords
    )
    p_a = int(twice) // 2 + 1 + data.draw(st.sampled_from((0, 0, -1, 1)))
    message = refusal(lambda: declare_curve(s, "q", tuple(coords), p_a))
    assert message.startswith("adjunction violation") == (twice != 2 * p_a - 2)
    if twice != 2 * p_a - 2 or p_a < 0:
        return
    negative = any(oracles.dense_pairing(rows, coords, d) < 0 for d in classes.values())
    assert ("would meet" in message and "negatively" in message) == negative
    if not negative:
        # the last refusal left for a smooth curve is the degree on the ample class
        degree = oracles.dense_pairing(rows, ample, coords)
        assert ("has degree <= 0 on the ample class" in message) == (degree <= 0)
        assert (message != "") == (degree <= 0)


@given(small_stages(), st.data())
def test_two_curve_blow_up_refuses_where_the_oracle_pairing_says(s, data):
    rows, _, _, classes = oracle_stage(s)
    ids = st.sampled_from(s.curve_ids())
    a, b = data.draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    m_a, m_b = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    meet = oracles.dense_pairing(rows, classes[a], classes[b])
    message = refusal(lambda: blow_up(s, BlowUpRecord("q", ((a, m_a), (b, m_b)))))
    # a double point needs a curve declared singular of genus >= 1, checked first
    admitted = all(
        m == 1 or (not s.curve(c).smooth and s.curve(c).p_a >= 1) for c, m in ((a, m_a), (b, m_b))
    )
    bound = message.startswith("multiplicity exceeds what intersection numbers permit")
    assert bound == (admitted and m_a * m_b > meet)
    if admitted:
        assert (message == "") == (m_a * m_b <= meet)
