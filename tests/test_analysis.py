"""One anticanonical analysis per surface: work counts, byte identity of
the reports, the non-pseudo-effective path, the failure reports, and the
un-strippable check of the decomposition."""
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import surfaces
from delpezzo import cli, lattice, pairs, singular, surface, zariski
from delpezzo.errors import CatalogInsufficient, InternalInconsistency, NotContractible
from delpezzo.lattice import PicardLattice
from delpezzo.pairs import (
    AnticanonicalAnalysis,
    certify_class_equalities,
    classify_nonrational,
    construct_klt_boundary,
    construct_klt_boundary_via_cone,
    cox_finitely_generated,
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
    find_redundant_points,
)
from delpezzo.surface import from_description

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
NOT_PSEUDO_EFFECTIVE = "catalog insufficient or divisor not pseudo-effective"

# SHA-256 of the stdout of `analyze <fixture> --format json` and
# `--format text`, recorded before the per-surface analysis existed
REPORT_DIGESTS = {
    "cubic10": (
        "487dfe1a1ed646880dbee3d3b55416d4a69a5e151c6662357c815b04eb41e67b",
        "325a3e2316cdd3964c0833cdfebb30c27a084dd2b37e611568048535752e1263",
    ),
    "dp3": (
        "7b784636be1f2c365663d51df4dcc78675e2ab4e4876699f3ff334ab930b0e8d",
        "d03abf3d7edc2f00054b6e49b1ecb06c5226f9ee056db90f17c0f8230938d235",
    ),
    "dp8": (
        "1b4e1c38d78a8fd279e26f9087211cfbb8657600fce560f164bec7bae3b1efb4",
        "bacd555eab0a6b3e1702b4863358cb3fa6bfcc7262a2301b1117fd1131e17c98",
    ),
    "elliptic_ruled": (
        "030067c6c793164c3e5974a2b43a96e705872375fbe450c01313390aacafd095",
        "69ed195473224dbf364615f4207af06d40745d12a4af7623693d31abb70f8c61",
    ),
    "elliptic_ruled_chain": (
        "566916c202e428a33b5312e88e84bcde1b094786d4cdc532f490559fa55a6176",
        "f1b5d799c7d091102aee5f5b0e7cab07554cf0e25227555beb87e10fc6002269",
    ),
    "f2": (
        "7f892cf32cbc8e7a3476ce0683612522b4c9b335f84e4e8f2af111e72517d74f",
        "5f546b5091684f52f35cd64a650d5a2b96f6612e1833bfe7ff1bba941b75deab",
    ),
    "f3": (
        "361419d5564b6a4db98af2f1e3cf73e351cd78d3d5c4e493bf0fdc519cdee094",
        "46052c3805522ac9f30533fae5315643d6b6843d5a3125f37592bd6338d387a3",
    ),
    "nine_point_pair": (
        "3cf44f9c33e245de7c8141b989b63d3e2f74a2caa1a2e75ed746f45bd0c52120",
        "788877e0801c3907b62165766a8e98a5ef4c181726327e9f6d971d3f050460f5",
    ),
    "nine_point_resolution": (
        "9a8d5b55ba270c9117e6523ec4e1bb3f5971c444448238482bb508ba3841d27e",
        "1acd88646348e60d8276c2b16e18853929dbfc088bd29a5434b7ae90e2b36a5a",
    ),
    "p2": (
        "f8bf0c8e5281f015ed591173bc3494a3177282bd5cfa58e38971d953e619f56f",
        "788877e0801c3907b62165766a8e98a5ef4c181726327e9f6d971d3f050460f5",
    ),
    "pair": (
        "8ccdfed803e7d09b8cf96a8a653ded8ef9a6e6adb835b946ae9651d40b56b4da",
        "2141c9af329ca4595a41e0a9490bb0ef613d2286449fe7d7507585eadfe62163",
    ),
    "star": (
        "171e5ae07722c1d2b6c6d3e6fd858e9454256cd0837bf92a73d19286fd578d1f",
        "b0087d821f6a0e77a12fb57754ab3f4f938da31da1d26f361c08c36f05f401cc",
    ),
}

# SHA-256 of `analyze --format json` on line_star(30, 16, 2), at rank 63 the
# largest family member under the default cap; recorded with the earlier
# per-minor Fraction elimination, which took about 10 s for it
RANK_CAP_DIGEST = "5755d998d5e91039494d04c9efb82c62b9605e73c5c06c8445334b1dffe5f910"


def line_star(n, arms, length):
    """P2 with a line through n blown-up points, then a chain of ``length``
    blow-ups on each of the first ``arms`` exceptionals."""
    blowups = [
        {"point": f"p{i}", "exceptional": f"e{i}", "on": [["l", 1]]}
        for i in range(1, n + 1)
    ]
    for arm in range(1, arms + 1):
        previous = f"e{arm}"
        for step in range(1, length + 1):
            current = f"f{arm}_{step}"
            blowups.append(
                {"point": f"q{arm}_{step}", "exceptional": current, "on": [[previous, 1]]}
            )
            previous = current
    return {
        "base": {"kind": "P2"},
        "curves": [{"id": "l", "class": ["1"], "pa": 0, "smooth": True}],
        "blowups": blowups,
    }


def test_blown_up_lattice_keeps_only_the_base_block():
    s = from_description(line_star(56, 2, 3))
    assert s.rank == 63
    assert len(s.lattice.gram) == 1


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the expensive stages, with the counting wrapper bound
    at every module that imported the original by name."""
    counts = {}
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "delpezzo" or name.startswith("delpezzo.")
    ]
    for home, attr in (
        (zariski, "zariski_decompose"),
        (singular, "contract"),
        (pairs, "_witness"),
        (surface, "blow_up"),
    ):
        original = getattr(home, attr)
        counts[attr] = 0

        def wrapper(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_loading_builds_one_lattice_and_no_intermediate_model(monkeypatch, calls):
    lattices = []
    original = PicardLattice.__init__

    def counting(self, *args):
        lattices.append(self)
        original(self, *args)

    monkeypatch.setattr(PicardLattice, "__init__", counting)
    s = from_description(line_star(56, 2, 3))
    assert calls["blow_up"] == 0
    assert len(lattices) == 1 and lattices[0] is s.lattice


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_one_analysis_decomposes_once(name, calls):
    s = cli._load(str(FIXTURES / f"{name}.json"))
    cli._analysis(s)
    assert calls["zariski_decompose"] == 1
    assert calls["contract"] <= 1
    assert calls["_witness"] <= 1


@pytest.mark.parametrize("name,reads", [("cubic10", 1), ("dp8", 2), ("f3", 2), ("p2", 2)])
def test_analyze_reads_each_witness_boundary_once(monkeypatch, name, reads):
    # the witness and the weak verdict check the record they have just
    # built; only a public validator reads its input afresh
    made = []
    original = pairs.make_boundary

    def counted(s, components):
        made.append(components)
        return original(s, components)

    monkeypatch.setattr(pairs, "make_boundary", counted)
    assert run_cli("analyze", str(FIXTURES / f"{name}.json"), "--format", "json")[0] == 0
    assert len(made) == reads


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS) + ["line_star(36,2,2)"])
def test_analyze_squares_each_class_once(monkeypatch, tmp_path, name):
    # P^2 is paired once per analysis and K^2 once per model, whether the
    # reader asks for K or for -K
    path = FIXTURES / f"{name}.json"
    if name not in REPORT_DIGESTS:
        path = tmp_path / "line_star.json"
        path.write_text(json.dumps(line_star(36, 2, 2)))
    squared, models = [], []
    pair, load = PicardLattice.pair, cli._load

    def counted(lattice, a, b):
        if a is b:
            squared.append(a)
        return pair(lattice, a, b)

    monkeypatch.setattr(PicardLattice, "pair", counted)
    monkeypatch.setattr(cli, "_load", lambda p: models.append(load(p)) or models[-1])
    assert run_cli("analyze", str(path), "--format", "json")[0] == 0
    (s,) = models
    assert len({id(d) for d in squared}) == len(squared)
    assert sum(d is s.canonical or d is s.anticanonical for d in squared) == 1


# the sizes of the eliminations one analysis runs: one per Zariski round
# with a nonempty support (the first round has none, so it eliminates
# nothing), and none more, since the contraction and the witness ask for
# the last round's curve set and get its matrix back; only `pair` reaches
# the witness's solve (the others are not big, or have a coefficient >= 1)
@pytest.mark.parametrize(
    "build,sizes,witness_solves",
    [
        (lambda: from_description(line_star(6, 4, 2)), (1, 5, 9, 11), 0),
        (surfaces.negative_star, (1, 6, 7), 0),
        (surfaces.meeting_negative_pair, (2,), 1),
    ],
    ids=["line_star(6,4,2)", "star", "pair"],
)
def test_one_elimination_per_curve_set(monkeypatch, build, sizes, witness_solves):
    s = build()
    eliminated, solved, analyses = [], [], []
    bareiss, solve = lattice._bareiss, pairs._solve_integers
    monkeypatch.setattr(lattice, "_bareiss", lambda e: eliminated.append(len(e)) or bareiss(e))
    monkeypatch.setattr(pairs, "_solve_integers", lambda m, b: solved.append(m) or solve(m, b))

    def analysis_of(s):
        analyses.append(AnticanonicalAnalysis(s))
        return analyses[-1]

    monkeypatch.setattr(cli, "AnticanonicalAnalysis", analysis_of)
    cli._analysis(s)
    assert tuple(eliminated) == sizes
    (analysis,) = analyses
    assert len(solved) == witness_solves
    assert all(matrix is analysis.model.matrix for matrix in solved)


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_analyze_reports_are_byte_identical(name):
    for fmt, expected in zip(("json", "text"), REPORT_DIGESTS[name]):
        code, out, _ = run_cli("analyze", str(FIXTURES / f"{name}.json"), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, fmt


def test_fixture_writer_reproduces_the_committed_files(tmp_path):
    written = surfaces.write_fixtures(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in FIXTURES.glob("*.json"))
    assert len(written) == 12
    for path in written:
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name


# SHA-256 of the stdout of `classify`, `decompose`, `witness --method direct`
# and `witness --method cone`, each with `--format json`, recorded when the
# reports were rendered by json.dumps; None where the command exits 2 with
# nothing on stdout, since the surface has no klt boundary
SUBCOMMAND_DIGESTS = {
    "cubic10": (
        "54bdee9a8b8050b5c7d76dc2ca704a7f26ddf0ff97f99024d1c22ce15ca00dea",
        "12bebadabeb47fc330a9822427c7c7dfe7d84adaee2a38cbf69b9fa698a00aea",
        None,
        None,
    ),
    "dp3": (
        "f8b4721c000422c0fb9fa18d2ce92f309f4cf8767818dcd72cb44bec85699e77",
        "6c741f57db2531f64dadc2b26eacb46431e875ca77e817832e2d79d76c9a39fd",
        "cd3a8a293200bbf825546e2d014a757e1334602de5da9a1dd033b87e0831858f",
        "18e5f716b0063738b71ed075420a6f841675a55e2152ae0b0ebed1b741145008",
    ),
    "dp8": (
        "617ee8cb45131f4a8588472ed70329093779011f8b1bd191bf486f5421043939",
        "0b514c9b3f10767d8a094993b18c6c89213b8661ba3f6d1aa6df7947bf627e36",
        "cd3a8a293200bbf825546e2d014a757e1334602de5da9a1dd033b87e0831858f",
        "18e5f716b0063738b71ed075420a6f841675a55e2152ae0b0ebed1b741145008",
    ),
    "elliptic_ruled": (
        "e39dc20724a2d2444b77bfb309478ff44f186c2442a8aeed6a8d40077f62c596",
        "2960acb5b474828a651540736ebc66b150639cf00bb01f40c21cbc947f661495",
        None,
        None,
    ),
    "elliptic_ruled_chain": (
        "96c4e14e2d3193e6a1db6cb0f2307bb1b92c207042f796bd2ff3507553299d75",
        "c4718ae038c1b7b88d53a35f870934b1c71cd72c9eb44d5ca4ea9df050a59e30",
        None,
        None,
    ),
    "f2": (
        "42b0686c4e4d6137e1cb32274ea085a7114d8d7cb0bb209c5766926578cab2d6",
        "f48ef65848cc8f4d1cec9e1873a0b8c3021a42d4b7f8d74a81091c951875c7a6",
        "33c95ccf75441d07091bc222684e3116645d67d40407d00d1106f5ac5204c88e",
        "ee05b29c7770df438889f1c2b5591f6b298793681f0ad82041f85e48a250fd4e",
    ),
    "f3": (
        "229d55e025e9c27957d774862574b722cc5da52c59f2153bf885dbe254775b27",
        "ddc55bad1630f4103f92992232b0536888951185f3f0bd17e55d9410ce1e8c07",
        "f360b5df7a40cd2dbc50a7e87c7b1120b9694694a331e7ece118dfd632c7234a",
        "823466eb7ce28ba578853a1a522c7ae91cec470fc6c97c0a7042c1d532af8f1b",
    ),
    "nine_point_pair": (
        "4f6bdd418ea6e6b18afbc9eb76fea5d80ae02704b4e60cb63355f833f367b2b5",
        "72384fcbf5528c1b3ddf60cf23e9c8ebc34c4caa10aff8e2161c0cb50f89f262",
        "cd3a8a293200bbf825546e2d014a757e1334602de5da9a1dd033b87e0831858f",
        "18e5f716b0063738b71ed075420a6f841675a55e2152ae0b0ebed1b741145008",
    ),
    "nine_point_resolution": (
        "1b1e880f618eca616396cbb7bf19c884feeab549e2283619d8661ce120c2d858",
        "609ac919dfd40990da7655550de8b784eef68381fd49bccd4ebfce966b8d4a69",
        None,
        None,
    ),
    "p2": (
        "4f6bdd418ea6e6b18afbc9eb76fea5d80ae02704b4e60cb63355f833f367b2b5",
        "72384fcbf5528c1b3ddf60cf23e9c8ebc34c4caa10aff8e2161c0cb50f89f262",
        "cd3a8a293200bbf825546e2d014a757e1334602de5da9a1dd033b87e0831858f",
        "18e5f716b0063738b71ed075420a6f841675a55e2152ae0b0ebed1b741145008",
    ),
    "pair": (
        "accd21f4412ddd63ae8d4719025c3aa4f620ec3e652c3fbc42c34d882a9e2f8e",
        "d65f35b4798135aa5baeeca69fecfacff74327dc852eca230fb3ee4848369184",
        "c5cb828f9dcbf4f12af5a97d378f37e6c5b24bc8b2f55476bd0b499ff09c3a13",
        "44e884760870fbe51be4c4623accc50cdae5cb34f513941e16cc7a1f0f3cac37",
    ),
    "star": (
        "1bdab2b2ec3ef9c0271118e0e4b3dbcde008ab441d77ce3649826bc324b84c7a",
        "be9d043482b03a82c563b154c855ce2c8769b6b2f20f13ecaaafa538b001b2fe",
        None,
        None,
    ),
}
SUBCOMMANDS = (
    ("classify", "--format", "json"),
    ("decompose", "--format", "json"),
    ("witness", "--method", "direct", "--format", "json"),
    ("witness", "--method", "cone", "--format", "json"),
)


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_DIGESTS))
def test_subcommand_reports_are_byte_identical(name):
    for (command, *options), expected in zip(SUBCOMMANDS, SUBCOMMAND_DIGESTS[name]):
        code, out, err = run_cli(command, str(FIXTURES / f"{name}.json"), *options)
        if expected is None:
            assert (code, out) == (2, ""), (command, options)
            assert err.startswith("error: "), (command, options)
        else:
            assert (code, err) == (0, ""), (command, options)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == expected, (command, options)


# SHA-256 of the stdout of `blowup cubic10.json --at c`, recorded when the
# command decomposed -K three times
BLOWUP_DIGEST = "c2518ddfa7fe9084243c5f26ed4ff873794df44f9e8c1fb327674457930e1241"


def test_blowup_decomposes_each_surface_once(calls):
    code, out, err = run_cli("blowup", str(FIXTURES / "cubic10.json"), "--at", "c")
    assert (code, err) == (0, "")
    assert calls["zariski_decompose"] == 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BLOWUP_DIGEST


# a ruled base over an elliptic curve, e = 0, with three points of f blown
# up: -K.f' = -1 puts f' in N, then c0 (c0^2 = 0) joins a support that is
# not negative definite
RULED_NOT_PSEUDO_EFFECTIVE = {
    "base": {"kind": "ruled", "e": 0, "genus": 1},
    "blowups": [
        {"point": f"p{i}", "exceptional": f"e{i}", "on": [["f", 1]]} for i in (1, 2, 3)
    ],
}
# the public functions that read -K = P + N off a surface
PAIR_FUNCTIONS = (
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
    certify_class_equalities,
    classify_nonrational,
    cox_finitely_generated,
    find_redundant_points,
    construct_klt_boundary,
    construct_klt_boundary_via_cone,
)
FIELDS = [name for name, v in vars(AnticanonicalAnalysis).items() if isinstance(v, property)]


def test_not_pseudo_effective_surface(tmp_path, calls):
    # without -K = P + N there is no verdict: every reader raises the
    # decomposition's error, except that the non-rational check rejects a
    # rational base before it reads -K
    for name, description in (
        ("line_star_10_6_3", line_star(10, 6, 3)),
        ("ruled", RULED_NOT_PSEUDO_EFFECTIVE),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(description))
        for command in ("analyze", "classify"):
            assert run_cli(command, str(path)) == (2, "", f"error: {NOT_PSEUDO_EFFECTIVE}\n")

        s = from_description(description)
        for function in PAIR_FUNCTIONS:
            if s.rational and function is classify_nonrational:
                assert function(s).message.startswith("requires a ruled surface")
                continue
            with pytest.raises(CatalogInsufficient, match=NOT_PSEUDO_EFFECTIVE):
                function(s)

        # a failed field is not recomputed: one decomposition for every read
        calls["zariski_decompose"] = 0
        analysis = AnticanonicalAnalysis(s)
        for field in FIELDS * 2:
            if s.rational and field == "nonrational":
                assert analysis.nonrational.message.startswith("requires a ruled surface")
                continue
            with pytest.raises(CatalogInsufficient, match=NOT_PSEUDO_EFFECTIVE):
                getattr(analysis, field)
        assert calls["zariski_decompose"] == 1, name


def test_internal_inconsistency_exits_three(monkeypatch):
    def broken(s, z):
        raise InternalInconsistency("Zariski decomposition: P + N != D")

    monkeypatch.setattr(zariski, "_verify", broken)
    code, out, err = run_cli("analyze", str(FIXTURES / "f3.json"))
    assert code == 3
    assert out == ""
    assert err == "internal inconsistency: Zariski decomposition: P + N != D\n"


def analyze_failures(name):
    """Exit code and the reported failures of `analyze <name> --format json`."""
    code, out, err = run_cli("analyze", str(FIXTURES / f"{name}.json"), "--format", "json")
    assert err == ""
    data = json.loads(out)
    assert data["consistent"] is (code == 0)
    return code, data["failures"]


def plant_in_model(monkeypatch, change):
    """Make every contraction the analysis reads pass through ``change``."""
    original = pairs.contract
    monkeypatch.setattr(pairs, "contract", lambda s, curves: change(original(s, curves)))


def test_worse_model_tag_exits_three(monkeypatch):
    plant_in_model(
        monkeypatch,
        lambda data: data._replace(
            verdicts=tuple(v._replace(tag="WorseThanLc") for v in data.verdicts)
        ),
    )
    assert analyze_failures("f3") == (
        3,
        [
            "klt quintet disagrees: klt_model=False, klt_any_boundary=True, "
            "klt_snc_boundary=True, klt_log_resolution=True, klt_minimal_resolution=True",
            "weak quintet disagrees: weak_lc_model=False, weak_lc_any_boundary=True, "
            "weak_lc_snc_boundary=True, weak_lc_log_resolution=True, "
            "weak_lc_minimal_resolution=True",
        ],
    )


def test_failed_contraction_is_reported_and_exits_three(monkeypatch):
    def not_contractible(data):
        raise NotContractible("planted")

    plant_in_model(monkeypatch, not_contractible)
    path = str(FIXTURES / "f3.json")
    code, out, err = run_cli("analyze", path, "--format", "json")
    assert (code, err) == (3, "")
    data = json.loads(out)
    assert data["model"] == {"error": "planted"}
    assert data["consistent"] is False
    failures = [
        "model contraction failed: planted",
        "klt quintet disagrees: klt_model=False, klt_any_boundary=True, "
        "klt_snc_boundary=True, klt_log_resolution=True, klt_minimal_resolution=True",
        "weak quintet disagrees: weak_lc_model=False, weak_lc_any_boundary=True, "
        "weak_lc_snc_boundary=True, weak_lc_log_resolution=True, "
        "weak_lc_minimal_resolution=True",
    ]
    assert data["failures"] == failures

    code, out, err = run_cli("analyze", path)
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert "anticanonical model: planted" in lines
    assert "consistent: False" in lines
    start = lines.index("consistent: False") + 1
    assert lines[start:start + 3] == [f"  FAILURE: {f}" for f in failures]


def test_failed_klt_witness_exits_three(monkeypatch):
    def insufficient(analysis, via_cone):
        raise CatalogInsufficient("catalog insufficient: planted")

    monkeypatch.setattr(pairs, "_witness", insufficient)
    assert analyze_failures("f3") == (
        3,
        [
            "klt quintet disagrees: klt_model=True, klt_any_boundary=False, "
            "klt_snc_boundary=False, klt_log_resolution=False, klt_minimal_resolution=False"
        ],
    )


def test_failed_weak_witness_exits_three(monkeypatch):
    # the weak verdict reads one flag of its record of N, the snc flag: plant
    # the fault there, and leave the klt witness's records alone
    s = cli._load(str(FIXTURES / "f3.json"))
    negative = zariski.zariski_decompose(s, s.anticanonical).negative
    original = pairs.make_boundary

    def planted(s, components):
        read = original(s, components)
        return read._replace(snc=False) if tuple(components) == negative else read

    monkeypatch.setattr(pairs, "make_boundary", planted)
    assert analyze_failures("f3") == (
        3,
        [
            "weak quintet disagrees: weak_lc_model=True, weak_lc_any_boundary=False, "
            "weak_lc_snc_boundary=False, weak_lc_log_resolution=False, "
            "weak_lc_minimal_resolution=False"
        ],
    )


def test_nonrational_shape_failure_exits_three(monkeypatch):
    def rejected(analysis, contracted):
        return pairs.NonRationalReport(False, None, None, (), (), "planted")

    monkeypatch.setattr(pairs, "_classify_nonrational", rejected)
    assert analyze_failures("elliptic_ruled") == (
        3,
        ["non-rational weak lc surface fails the classification: planted"],
    )


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_certify_does_not_revalidate(monkeypatch, name):
    analysis = AnticanonicalAnalysis(cli._load(str(FIXTURES / f"{name}.json")))
    analysis.klt_verdict, analysis.weak_verdict
    called = []
    for fn in (
        "check_EP_condition",
        "validate_klt_del_pezzo",
        "validate_weak_lc_del_pezzo",
        "_klt_checks",
    ):
        monkeypatch.setattr(pairs, fn, lambda *args, fn=fn: called.append(fn))
    assert analysis.certify.consistent
    assert called == []


# one planted fault per check of zariski._verify on F3, where -K = P + c0/3
# and P.f = 5/3; each shift keeps the other checks passing
_PLANTED_FAULTS = [
    ("positive=z.positive + f", "P + N != D"),
    (
        "positive=z.positive + f, original=z.original + f",
        "P is not orthogonal to the support of N",
    ),
    (
        "positive=z.positive - t, original=z.original - t",
        "P is negative on a catalog curve",
    ),
]


@pytest.mark.parametrize(
    "fault,problem", _PLANTED_FAULTS, ids=["sum", "orthogonal", "nef"]
)
def test_verification_survives_optimize_flag(fault, problem):
    # python -O strips assert statements; the decomposition check must stay
    script = (
        "import surfaces\n"
        "from delpezzo.errors import InternalInconsistency\n"
        "from delpezzo.zariski import _verify, zariski_decompose\n"
        "s = surfaces.hirzebruch(3)\n"
        "z = zariski_decompose(s, s.anticanonical)\n"
        "f = s.class_of([('f', 1)])\n"
        "t = (s.class_of([('c0', 1)]) + f.scale(3)).scale(2)\n"
        f"bad = z._replace({fault})\n"
        "try:\n"
        "    _verify(s, bad)\n"
        "except InternalInconsistency as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"Zariski decomposition: {problem}\n"


def test_package_has_no_assert_statements():
    # python -O strips them, so no check of the package may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "delpezzo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_rank_cap_finishes_in_bounded_time(tmp_path):
    path = tmp_path / "line_star_30_16_2.json"
    path.write_text(json.dumps(line_star(30, 16, 2)))
    start = time.perf_counter()
    code, out, _ = run_cli("analyze", str(path), "--format", "json")
    seconds = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["rank"] == 63
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RANK_CAP_DIGEST
    assert seconds < 5
