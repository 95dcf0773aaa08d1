"""Value semantics of the package's record types, and the cost guard that
keeps their declarations free of generated code."""
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo
import surfaces
from delpezzo import (
    BaseSurface,
    BlowUpRecord,
    BoundaryDivisor,
    ClassVerdict,
    CurveRecord,
    IntersectionMatrix,
    PicardLattice,
    Q,
    SingularityVerdict,
    SurfaceModel,
    WitnessParams,
)
from delpezzo.corpus import CorpusEntry
from delpezzo.pairs import CertifyReport, NonRationalReport, RedundantPoint
from delpezzo.singular import DualGraph
from delpezzo.zariski import zariski_decompose

ROOT = Path(__file__).resolve().parent.parent


def _lattice():
    return PicardLattice(("h", "e1"), ((1,),))


# (name, a factory building a fresh instance, its repr before the records
# stopped being dataclasses)
RECORDS = [
    ("PicardLattice", _lattice, "PicardLattice(labels=('h', 'e1'), gram=((1,),))"),
    (
        "BaseSurface",
        lambda: BaseSurface("hirzebruch", e=2),
        "BaseSurface(kind='hirzebruch', e=2, genus=0)",
    ),
    (
        "IntersectionMatrix",
        lambda: IntersectionMatrix(("a", "b"), ((Q(-2), Q(1)), (Q(1), Q(-2)))),
        "IntersectionMatrix(curve_ids=('a', 'b'), entries=((-2, 1), (1, -2)))",
    ),
    (
        "CurveRecord",
        lambda: CurveRecord("c", ((0, 1), (1, -1)), 0, True, "declared-base-curve"),
        "CurveRecord(curve_id='c', sparse=((0, 1), (1, -1)), p_a=0, smooth=True, "
        "provenance='declared-base-curve')",
    ),
    (
        "BlowUpRecord",
        lambda: BlowUpRecord("p1", (("h", 1),), None, "e1"),
        "BlowUpRecord(point_id='p1', incidences=(('h', 1),), near=None, exceptional_id='e1')",
    ),
    (
        "BlowUpRecord-defaults",
        lambda: BlowUpRecord("p2"),
        "BlowUpRecord(point_id='p2', incidences=(), near=None, exceptional_id=None)",
    ),
    (
        "ClassVerdict",
        lambda: ClassVerdict(True, reason="r"),
        "ClassVerdict(member=True, witness=None, reason='r', "
        "caveat='relative to declared catalog', applicable=True)",
    ),
    (
        "SingularityVerdict",
        lambda: SingularityVerdict("DuVal", ("a", "b"), "a", Q(0)),
        "SingularityVerdict(tag='DuVal', component=('a', 'b'), extremal_curve='a', "
        "extremal_discrepancy=Fraction(0, 1))",
    ),
    (
        "WitnessParams",
        lambda: WitnessParams(Q(1, 2), (("a", Q(1, 3)),)),
        "WitnessParams(epsilon=Fraction(1, 2), multipliers=(('a', Fraction(1, 3)),))",
    ),
    (
        "BoundaryDivisor",
        lambda: BoundaryDivisor((("a", Q(1, 2)),), True, True),
        "BoundaryDivisor(components=(('a', Fraction(1, 2)),), floor_is_zero=True, snc=True)",
    ),
    (
        "RedundantPoint",
        lambda: RedundantPoint("generic", ("a",), Q(1)),
        "RedundantPoint(kind='generic', curve_ids=('a',), multiplicity=Fraction(1, 1), "
        "point_id=None)",
    ),
    (
        "DualGraph",
        lambda: DualGraph((("a", Q(-2), 0),), ()),
        "DualGraph(nodes=(('a', Fraction(-2, 1), 0),), edges=())",
    ),
    (
        "CorpusEntry",
        lambda: CorpusEntry(1, "P2", 3, "ok", ""),
        "CorpusEntry(index=1, base='P2', rank=3, status='ok', detail='')",
    ),
    (
        "NonRationalReport",
        lambda: NonRationalReport(True, 1, "c", (("a",),), ("x",), "m"),
        "NonRationalReport(ok=True, case=1, elliptic_curve='c', an_chains=(('a',),), "
        "factorization=('x',), message='m')",
    ),
    (
        "CertifyReport",
        lambda: CertifyReport((("k", True),), (("w", False),), ()),
        "CertifyReport(klt=(('k', True),), weak=(('w', False),), failures=())",
    ),
]


@pytest.mark.parametrize("name,make,text", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_value_semantics(name, make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b


def test_records_of_different_values_differ():
    assert BaseSurface("hirzebruch", e=2) != BaseSurface("hirzebruch", e=3)
    assert _lattice() != PicardLattice(("h", "e2"), ((1,),))
    assert PicardLattice(("c0", "f"), ((-1, 1), (1, 0))) != PicardLattice(
        ("c0", "f"), ((-2, 1), (1, 0))
    )
    assert IntersectionMatrix(("a",), ((Q(-2),),)) != IntersectionMatrix(("a",), ((Q(-1),),))


def test_surface_model_keeps_identity_equality_and_field_order():
    s = surfaces.hirzebruch(2)
    fields = (s.base, s.blowups, s.catalog, s.canonical, s.lattice, s.incidence, s.declarations)
    names = ("base", "blowups", "catalog", "canonical", "lattice", "incidence", "declarations")
    by_position = SurfaceModel(*fields)
    by_keyword = SurfaceModel(**dict(zip(names, fields)))
    assert by_position != s and by_position == by_position
    assert repr(by_position) == repr(by_keyword) == repr(s)
    assert repr(s).startswith("SurfaceModel(base=BaseSurface(kind='hirzebruch', e=2, genus=0), ")
    assert by_keyword.curve("c0") is s.curve("c0") and by_keyword.has_curve("f")
    with pytest.raises(AttributeError):
        s.catalog = ()
    with pytest.raises(AttributeError):
        s.extra = None


def test_zariski_decomposition_is_a_tuple(monkeypatch):
    s = surfaces.hirzebruch(3)
    z = zariski_decompose(s, s.anticanonical)
    original, positive, negative, positive_square, max_coefficient, null = z
    assert z == (original, positive, negative, positive_square, max_coefficient, null)
    assert negative == (("c0", Q(1, 3)),)
    assert null == ("c0",)
    # the record holds what it settled: reading it pairs nothing
    calls = []
    pair = PicardLattice.pair
    monkeypatch.setattr(PicardLattice, "pair", lambda *args: calls.append(1) or pair(*args))
    for _ in range(2):
        assert dict(z.negative).get("c0", 0) == z.max_coefficient == Q(1, 3)
        assert z.positive_square == positive_square
        assert z.null == null
    assert calls == []
    assert positive_square == positive.square
    assert z._replace(negative=()) != z


def test_no_other_dataclass_declarations():
    found = []
    for info in pkgutil.iter_modules(delpezzo.__path__, "delpezzo."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
            ):
                found.append(f"{obj.__module__}.{obj.__qualname__}")
    assert not found, (
        f"{', '.join(sorted(found))}: each @dataclass declaration generates and "
        "compiles its methods at import, about 1.1 ms per class on every start "
        "of delpezzo; declare a record with collections.namedtuple or a plain "
        "class with __slots__"
    )


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site-packages hooks out of the module list
    script = (
        "import delpezzo.cli, sys\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n", f"importing delpezzo.cli imports {result.stdout.strip()}"
