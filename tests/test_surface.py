"""Surface construction, blow-up calculus, and serialization."""
import random
from fractions import Fraction as Q

import pytest

import oracles
from delpezzo import corpus, fixtures
from delpezzo.errors import InvalidSurfaceData
from delpezzo.surface import (
    BlowUpRecord,
    arithmetic_genus,
    blow_up,
    build_base,
    declare_curve,
    dumps,
    extend_to,
    from_description,
    loads,
    to_description,
)


def test_projective_plane_base():
    s = build_base("P2")
    assert s.rank == 1
    assert s.canonical.coords == (Q(-3),)
    h = s.curve("h")
    assert h.divisor_class.square == 1
    assert arithmetic_genus(s, h.divisor_class) == 0


def test_hirzebruch_two_base():
    s = build_base("hirzebruch", e=2)
    assert s.canonical.coords == (Q(-2), Q(-4))
    c0 = s.curve("c0").divisor_class
    f = s.curve("f").divisor_class
    assert c0.square == -2 and f.square == 0 and c0.dot(f) == 1
    # adjunction oracle on both seed curves
    assert oracles.adjunction_genus(c0.square, s.canonical.dot(c0)) == 0
    assert oracles.adjunction_genus(f.square, s.canonical.dot(f)) == 0
    assert s.anticanonical.dot(c0) == 0


def test_elliptic_ruled_base():
    s = build_base("ruled", e=0, genus=1)
    assert s.canonical.coords == (Q(-2), Q(0))
    f = s.curve("f").divisor_class
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
    line = s.curve("h").divisor_class
    assert line.square == 0
    assert s.canonical.coords == (Q(-3), Q(1))
    e = s.curve("e1")
    assert e.divisor_class.square == -1 and e.p_a == 0


def test_blow_up_point_on_cubic_keeps_genus():
    s = build_base("P2")
    s = declare_curve(s, "c", (3,), 1)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("c", 1),)))
    c = s.curve("c")
    assert c.divisor_class.square == 8
    assert c.p_a == 1
    assert c.provenance == "strict-transform"


def test_blow_up_free_point_changes_nothing_else():
    s = build_base("P2")
    s = declare_curve(s, "c", (3,), 1)
    s = blow_up(s, BlowUpRecord("p1"))
    assert s.curve("c").divisor_class.coords == (Q(3), Q(0))
    assert s.rank == 2


def test_blow_up_node_multiplicity_two():
    s = build_base("P2")
    s = declare_curve(s, "nodal", (3,), 1, smooth=False)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("nodal", 2),)))
    c = s.curve("nodal")
    assert c.p_a == 0
    assert c.divisor_class.square == 9 - 4
    # adjunction still holds
    assert arithmetic_genus(s, c.divisor_class) == 0


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
    e = s2.curve("e1").divisor_class
    assert s2.canonical == lifted + e
    # verified against every catalog curve
    for record in s2.catalog:
        assert s2.canonical.dot(record.divisor_class) == (lifted + e).dot(
            record.divisor_class
        )


def test_strict_transform_intersections_drop_by_products():
    s = build_base("P2")
    s = declare_curve(s, "a", (2,), 0)
    s = declare_curve(s, "b", (1,), 0)
    old = s.curve("a").divisor_class.dot(s.curve("b").divisor_class)
    s = blow_up(s, BlowUpRecord("p1", incidences=(("a", 1), ("b", 1))))
    new = s.curve("a").divisor_class.dot(s.curve("b").divisor_class)
    assert new == old - 1


def test_adjunction_invariant_through_tower():
    s, chain = fixtures.exceptional_chain((2, 3, 4))
    for record in s.catalog:
        assert arithmetic_genus(s, record.divisor_class) == record.p_a
    weights = [-s.curve(c).divisor_class.square for c in chain]
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
    cls = {cid: s.curve(cid).divisor_class for cid in "abc"}
    assert cls["a"].dot(cls["b"]) == 0
    assert cls["a"].dot(s.curve("e1").divisor_class) == 1


def test_infinitely_near_point_requires_exceptional():
    s = build_base("P2")
    s = declare_curve(s, "a", (1,), 0)
    with pytest.raises(InvalidSurfaceData, match="infinitely-near"):
        blow_up(s, BlowUpRecord("p1", near="a"))


def test_round_trip_is_lossless_and_canonical():
    for name, builder in fixtures.FIXTURES.items():
        s = builder()
        text = dumps(s)
        reparsed = loads(text)
        assert to_description(reparsed) == to_description(s), name
        assert dumps(reparsed) == text, name
        # canonical: keys sorted
        assert text.index('"base"') < text.index('"blowups"') < text.index('"curves"')


def test_round_trip_preserves_catalog():
    s = fixtures.meeting_negative_pair()
    r = loads(dumps(s))
    assert r.curve_ids() == s.curve_ids()
    for a, b in zip(r.catalog, s.catalog):
        assert a.divisor_class.coords == b.divisor_class.coords
        assert a.p_a == b.p_a and a.smooth == b.smooth


def test_max_rank_cap():
    data = to_description(fixtures.cubic_with_points(10))
    with pytest.raises(InvalidSurfaceData, match="exceeds the cap"):
        from_description(data, max_rank=5)


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
    assert reparsed.curve("conic").divisor_class.coords == (Q(2), Q(-1), Q(-1))


@pytest.mark.parametrize("seed", range(12))
def test_blow_up_lifts_classes_by_one_coordinate(seed):
    # random blow-up sequences drawn the way the corpus draws them; each
    # step is checked against DivisorClass arithmetic on the new lattice
    rng = random.Random(seed)
    s = corpus._random_base(rng)
    for index in range(1, 9):
        t = corpus._random_blow_up(rng, s, index)
        if t is s:
            continue
        rec = t.blowups[-1]
        exc = t.lattice.basis_class(rec.exceptional_id)
        mults = dict(rec.incidences)
        for old in s.catalog:
            lifted = extend_to(old.divisor_class, t)
            expected = lifted - exc.scale(mults.get(old.curve_id, 0))
            assert t.curve(old.curve_id).divisor_class == expected
        assert t.curve(rec.exceptional_id).divisor_class == exc
        assert t.canonical == extend_to(s.canonical, t) + exc
        for record in t.catalog:
            assert arithmetic_genus(t, record.divisor_class) == record.p_a
        s = t
