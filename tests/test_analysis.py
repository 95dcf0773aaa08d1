"""One anticanonical analysis per surface: work counts, byte identity of
the reports, the non-pseudo-effective path, and the un-strippable check of
the decomposition."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import cli, pairs, singular, zariski
from delpezzo.errors import CatalogInsufficient, InternalInconsistency
from delpezzo.pairs import (
    AnticanonicalAnalysis,
    certify_class_equalities,
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
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
    for home, attr in ((zariski, "zariski_decompose"), (singular, "contract"), (pairs, "_witness")):
        original = getattr(home, attr)
        counts[attr] = 0

        def wrapper(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_one_analysis_decomposes_once(name, calls):
    s = cli._load(str(FIXTURES / f"{name}.json"))
    cli._analysis(s)
    assert calls["zariski_decompose"] == 1
    assert calls["contract"] <= 1
    assert calls["_witness"] <= 1


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_analyze_reports_are_byte_identical(name):
    for fmt, expected in zip(("json", "text"), REPORT_DIGESTS[name]):
        code, out, _ = run_cli("analyze", str(FIXTURES / f"{name}.json"), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, fmt


def test_not_pseudo_effective_surface(tmp_path, calls):
    path = tmp_path / "line_star_10_6_3.json"
    path.write_text(json.dumps(line_star(10, 6, 3)))
    assert run_cli("analyze", str(path)) == (2, "", f"error: {NOT_PSEUDO_EFFECTIVE}\n")

    s = from_description(line_star(10, 6, 3))
    for verdict in (decide_klt_pair_exists(s), decide_weak_lc_pair_exists(s)):
        assert not verdict.member and not verdict.applicable
        assert verdict.reason == NOT_PSEUDO_EFFECTIVE
    report = certify_class_equalities(s)
    assert not report.applicable
    assert report.consistent is False
    assert report.failures == (NOT_PSEUDO_EFFECTIVE,)
    assert not any(v for _, v in report.klt + report.weak)

    # a failed field is not recomputed: one decomposition for every read
    calls["zariski_decompose"] = 0
    analysis = AnticanonicalAnalysis(s)
    assert analysis.certify == report
    assert not analysis.klt_verdict.applicable
    for _ in range(2):
        with pytest.raises(CatalogInsufficient):
            analysis.model
    assert calls["zariski_decompose"] == 1


def test_internal_inconsistency_exits_three(monkeypatch):
    def broken(s, z):
        raise InternalInconsistency("Zariski decomposition: P + N != D")

    monkeypatch.setattr(zariski, "_verify", broken)
    code, out, err = run_cli("analyze", str(FIXTURES / "f3.json"))
    assert code == 3
    assert out == ""
    assert err == "internal inconsistency: Zariski decomposition: P + N != D\n"


def test_verification_survives_optimize_flag():
    # python -O strips assert statements; the decomposition check must stay
    script = (
        "from dataclasses import replace\n"
        "from delpezzo import fixtures\n"
        "from delpezzo.errors import InternalInconsistency\n"
        "from delpezzo.zariski import _verify, zariski_decompose\n"
        "s = fixtures.hirzebruch(3)\n"
        "z = zariski_decompose(s, s.anticanonical)\n"
        "bad = replace(z, positive=z.positive + s.curve('f').divisor_class)\n"
        "try:\n"
        "    _verify(s, bad)\n"
        "except InternalInconsistency:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
