"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the two timed criteria assert their budgets.
"""
import time
from fractions import Fraction as Q

import oracles
import surfaces
from delpezzo.corpus import run_corpus
from delpezzo.pairs import (
    AnticanonicalAnalysis,
    certify_class_equalities,
    check_EP_condition,
    classify_nonrational,
    construct_klt_boundary,
    cox_finitely_generated,
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
    pushforward_pair,
    redundant_blow_up,
)
from delpezzo.singular import contract
from delpezzo.surface import BlowUpRecord, blow_up, extend_to
from delpezzo.zariski import ample_on_catalog, zariski_decompose
from test_pairs import oracle_reasons


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {description}"
    if detail and not passed:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_hirzebruch_jung_exhaustive():
    """Chains with weights in {-2..-5}, length <= 5, vs the Cramer oracle."""
    start = time.monotonic()
    checked = 0
    for length in range(1, 6):
        chain = tuple(f"e{i}" for i in range(1, length + 1))
        # the bare tower realizes weights (2, ..., 2, 1); extra blow-ups are
        # assigned depth-first so weight prefixes share their surfaces
        tower = surfaces.projective_plane()
        tower = blow_up(tower, BlowUpRecord("t1"))
        for i in range(2, length + 1):
            tower = blow_up(
                tower,
                BlowUpRecord(f"t{i}", incidences=((f"e{i-1}", 1),), near=f"e{i-1}"),
            )

        def assign(position, surface, weights):
            nonlocal checked
            if position == length:
                data = contract(surface, chain)
                got = tuple(a for _, a in data.discrepancies)
                expected = oracles.chain_discrepancies(weights)
                assert got == expected, (weights, got, expected)
                checked += 1
                return
            current = 2 if position + 1 < length else 1
            for weight in range(2, 6):
                extended = surface
                for extra in range(weight - current):
                    extended = blow_up(
                        extended,
                        BlowUpRecord(
                            f"x{position}_{extra}_{weight}",
                            incidences=((chain[position], 1),),
                        ),
                    )
                assign(position + 1, extended, weights + (weight,))

        assign(0, tower, ())
    elapsed = time.monotonic() - start
    _report(
        1,
        f"{checked} Hirzebruch-Jung chains match the independent solver "
        f"exactly in {elapsed:.1f}s",
        checked == 4 + 16 + 64 + 256 + 1024 and elapsed < 10.0,
        f"checked={checked} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_a_n_du_val():
    ok = True
    for n in range(1, 11):
        s, tower = surfaces.exceptional_chain(tuple([2] * n) + (1,))
        data = contract(s, tower[:n])
        ok = ok and all(a == 0 for _, a in data.discrepancies)
        ok = ok and data.tags == ("DuVal",)
    _report(2, "A_n chains (n <= 10) have zero discrepancies and DuVal verdict", ok)


def test_criterion_3_corollary_biconditional_on_fixtures():
    expectations = {
        "p2": True,
        "f2": True,
        "f3": True,
        "dp3": True,
        "dp8": True,
        "cubic10": False,
    }
    details = []
    ok = True
    for name, expected in expectations.items():
        s = surfaces.FIXTURES[name]()
        z = zariski_decompose(s, s.anticanonical)
        verdict = decide_klt_pair_exists(s)
        floor_zero = z.max_coefficient < 1 and z.positive_square > 0
        if verdict.member != expected or floor_zero != expected:
            ok = False
            details.append(f"{name}: verdict={verdict.member}")
        if expected:
            boundary = construct_klt_boundary(s)
            why = oracle_reasons(s, boundary.components)[0]
            if not (why == "validated" and boundary.floor_is_zero):
                ok = False
                details.append(f"{name}: witness {why}")
        # the degenerate fixture still carries a weak boundary
        if name == "cubic10":
            weak = decide_weak_lc_pair_exists(s)
            if not (weak.member and weak.witness.components == (("c", Q(1)),)):
                ok = False
                details.append("cubic10: weak witness wrong")
    _report(
        3,
        "corollary biconditional and witness validation on the named fixtures",
        ok,
        "; ".join(details),
    )


def test_criterion_4_corpus_consistency():
    start = time.monotonic()
    summary = run_corpus(seed=1, count=200)
    elapsed = time.monotonic() - start
    ok = (
        summary.inconsistencies == 0
        and summary.errors == 0
        and elapsed < 120.0
    )
    _report(
        4,
        f"corpus --seed 1 --count 200: {summary.inconsistencies} quintet "
        f"inconsistencies, {summary.errors} errors in {elapsed:.1f}s",
        ok,
    )


def test_criterion_5_redundant_blow_up_law():
    ok = True
    details = []
    for name in ("cubic10", "pair", "elliptic_ruled", "elliptic_ruled_chain"):
        s = surfaces.FIXTURES[name]()
        a = AnticanonicalAnalysis(s)
        points = a.redundant_points
        if not points:
            ok = False
            details.append(f"{name}: no redundant point found")
            continue
        before_classes = certify_class_equalities(s)
        z_before = zariski_decompose(s, s.anticanonical)
        result = redundant_blow_up(a, points[0])  # verifies P/N pullback law
        z_after = zariski_decompose(result.model, result.model.anticanonical)
        if z_after.positive != extend_to(z_before.positive, result.model):
            ok = False
            details.append(f"{name}: P pullback failed")
        after_classes = certify_class_equalities(result.model)
        if dict(before_classes.klt) != dict(after_classes.klt) or dict(
            before_classes.weak
        ) != dict(after_classes.weak):
            ok = False
            details.append(f"{name}: class verdicts changed")
    _report(
        5,
        "P = pullback(P), N = pullback(N) - E, and all ten verdicts stable "
        "under redundant blow-ups",
        ok,
        "; ".join(details),
    )


def test_criterion_6_nine_point_configuration():
    base = surfaces.nine_point_pair_base()
    boundary = tuple(
        (f"l{i}_{j}", Q(1, 10)) for i in range(1, 10) for j in range(1, 4)
    )
    check = check_EP_condition(base, boundary, surfaces.nine_point_records())
    pair_ok = oracle_reasons(base, boundary)[0] == "validated"
    resolution = surfaces.nine_point_resolution()
    anti = resolution.anticanonical
    ok = (
        pair_ok
        and check.pair_is_klt
        and all(a == oracles.NINE_POINT_DISCREPANCY for _, a in check.discrepancies)
        and not check.effective
        and anti.square == 0
        and not zariski_decompose(resolution, anti).positive_square > 0
        and not ample_on_catalog(resolution, anti)
    )
    _report(
        6,
        "nine-points/27-lines: klt del Pezzo pair on the plane, resolution "
        "is not a big anticanonical surface",
        ok,
    )


def test_criterion_7_good_boundary_pipeline():
    ok = True
    details = []
    for name in ("f2", "f3"):
        s = surfaces.FIXTURES[name]()
        # the direct witness upstairs, pushed down the contraction of c0
        push = pushforward_pair(s, ("c0",), AnticanonicalAnalysis(s).witness[0].components)
        # the EP divisor is minus the discrepancies of the pushed-forward pair
        divisor = tuple((cid, -a) for cid, a in push.discrepancies)
        if not all(c >= 0 for _, c in divisor):
            ok = False
            details.append(f"{name}: divisor {divisor}")
        if not push.klt_del_pezzo:
            ok = False
            details.append(f"{name}: pushforward failed to re-certify")
    _report(
        7,
        "good-boundary pipeline on the Hirzebruch contractions: effectivity "
        "divisor componentwise >= 0",
        ok,
        "; ".join(details),
    )


def test_criterion_8_non_rational_shape():
    s = surfaces.elliptic_ruled(1)
    report = classify_nonrational(s)
    data = contract(s, ("c0",))
    cox_true, _ = cox_finitely_generated(s)
    chain = surfaces.elliptic_ruled_with_chain()
    cox_false, reason = cox_finitely_generated(chain, contracted=("e1",))
    ok = (
        report.ok
        and report.case == 1
        and data.tags == ("SimpleElliptic",)
        and cox_true
        and not cox_false
    )
    _report(
        8,
        "elliptic-ruled fixture: exactly one simple elliptic component, Cox "
        "true; case-(2) fixture: Cox false",
        ok,
    )


def test_criterion_9_pushforward_recertifies():
    ok = True
    details = []
    for name in ("p2", "f2", "f3", "dp3", "dp8", "pair"):
        s = surfaces.FIXTURES[name]()
        if not decide_klt_pair_exists(s).member:
            ok = False
            details.append(f"{name}: not klt to begin with")
            continue
        boundary = construct_klt_boundary(s)
        z = zariski_decompose(s, s.anticanonical)
        null_ids = tuple(
            r.curve_id for r in s.catalog if z.positive.dot(s.class_of([(r.curve_id, 1)])) == 0
        )
        result = pushforward_pair(s, null_ids, boundary.components)
        if not result.klt_del_pezzo:
            ok = False
            details.append(f"{name}: {result.reason}")
    _report(
        9,
        "pushforward of every certified klt del Pezzo pair fixture "
        "re-certifies",
        ok,
        "; ".join(details),
    )
