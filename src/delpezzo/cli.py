"""Command-line front end.

Subcommands: analyze, decompose, classify, witness, blowup, corpus.
Exit codes: 0 success, 1 asserted verdict false, 2 input error, 3 internal
inconsistency (a theorem-equality violation or a failed machine check).
All rationals cross the interface as "p/q" strings; reports are
deterministic for a given input.
"""
from __future__ import annotations

import argparse
import functools
import math
import reprlib
import sys

from . import pairs, singular, zariski
from .corpus import MAX_DRAW_RANK, run_corpus
from .errors import GeometryError, InternalInconsistency, InvalidSurfaceData, NumberTooLong
from .lattice import DivisorClass, format_rational
from .pairs import (
    KLT_CLASSES,
    WEAK_CLASSES,
    AnticanonicalAnalysis,
    redundant_blow_up,
)
from .surface import MAX_CURVES, MAX_RANK, SurfaceModel, dumps, input_rational, json_text, loads
from .zariski import CATALOG_CAVEAT, zariski_decompose

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _load(path: str) -> SurfaceModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidSurfaceData(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InvalidSurfaceData(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    try:
        return loads(text)
    except InvalidSurfaceData as exc:
        raise InvalidSurfaceData(f"{path}: {exc}")


def _class_strings(d: DivisorClass) -> list[str]:
    """``format_rational`` of each coordinate, read off the numerators."""
    den = d.den
    try:
        if den == 1:
            return list(map(str, d.nums))
        out = []
        for v in d.nums:
            g = math.gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return out
    except ValueError:  # a coordinate too long for str
        raise NumberTooLong() from None


def _pairs_json(items) -> list:
    return [[cid, format_rational(c)] for cid, c in items]


def _verdict_json(v) -> dict:
    out = {
        "member": v.member,
        "reason": v.reason,
        "caveat": v.caveat,
        "applicable": v.applicable,
    }
    if v.witness is not None:
        out["witness"] = {
            "components": _pairs_json(v.witness.components),
            "floor_is_zero": v.witness.floor_is_zero,
            "snc": v.witness.snc,
        }
    return out


def _analysis(s: SurfaceModel) -> dict:
    analysis = AnticanonicalAnalysis(s)
    z = analysis.decomposition
    null = z.null
    snc = singular.is_snc_configuration(s, null)
    report = analysis.certify
    try:
        model = analysis.model
        model_json = {
            "exceptional": list(model.exceptional),
            "discrepancies": _pairs_json(model.discrepancies),
            "components": [list(c) for c in model.components],
            "verdicts": [
                {
                    "tag": v.tag,
                    "component": list(v.component),
                    "extremal_curve": v.extremal_curve,
                    "extremal_discrepancy": format_rational(v.extremal_discrepancy),
                }
                for v in model.verdicts
            ],
            "canonical_square": format_rational(model.contracted_canonical_square),
        }
    except GeometryError as exc:
        model_json = {"error": str(exc)}
    classes = dict(report.klt + report.weak)
    try:
        cox_ok, cox_reason = analysis.cox
        cox = {"finitely_generated": cox_ok, "reason": cox_reason}
    except GeometryError as exc:
        cox = {"finitely_generated": None, "reason": str(exc)}
    redundant = [
        {
            "kind": p.kind,
            "curves": list(p.curve_ids),
            "multiplicity": format_rational(p.multiplicity),
            "point": p.point_id,
            "description": p.describe(),
        }
        for p in analysis.redundant_points
    ]
    out = {
        "surface": s,
        "rank": s.rank,
        "rational": s.rational,
        "anticanonical": {
            "class": _class_strings(s.anticanonical),
            "square": format_rational(s.canonical_square),
        },
        "zariski": {
            "positive": _class_strings(z.positive),
            "negative": _pairs_json(z.negative),
            "positive_square": format_rational(z.positive_square),
            "big": analysis.big,
        },
        "null_locus": {"curves": list(null), "snc": snc},
        "model": model_json,
        "classes": classes,
        "verdicts": {
            "klt_any_boundary": _verdict_json(analysis.klt_verdict),
            "weak_lc_any_boundary": _verdict_json(analysis.weak_verdict),
        },
        "consistent": report.consistent,
        "failures": list(report.failures),
        "cox": cox,
        "redundant_points": redundant,
        "dual_graph_dot": singular.dual_graph(s, null).to_dot(),
        "caveat": CATALOG_CAVEAT,
    }
    if not s.rational:
        out["numerical_only"] = (
            "non-rational base: linear and numerical equivalence differ; "
            "all claims are numerical"
        )
    return out


def _print_analysis_text(data: dict) -> None:
    print(f"rank {data['rank']}  rational={data['rational']}")
    anti = data["anticanonical"]
    print(f"-K = [{', '.join(anti['class'])}]   (-K)^2 = {anti['square']}")
    dec = data["zariski"]
    neg = ", ".join(f"{c}*{cid}" for cid, c in dec["negative"]) or "0"
    print(f"zariski: P^2 = {dec['positive_square']}  big={dec['big']}  N = {neg}")
    null = data["null_locus"]
    print(f"null locus: {{{', '.join(null['curves'])}}}  snc={null['snc']}")
    model = data["model"]
    if "error" in model:
        print(f"anticanonical model: {model['error']}")
    else:
        for verdict in model["verdicts"]:
            comp = "+".join(verdict["component"])
            print(
                f"  component {comp}: {verdict['tag']} "
                f"(extremal discrepancy {verdict['extremal_discrepancy']} "
                f"on {verdict['extremal_curve']})"
            )
        print(f"  contracted canonical square: {model['canonical_square']}")
    print(f"classes ({data['caveat']}):")
    for name in KLT_CLASSES + WEAK_CLASSES:
        print(f"  {name}: {data['classes'][name]}")
    print(f"consistent: {data['consistent']}")
    for failure in data["failures"]:
        print(f"  FAILURE: {failure}")
    cox = data["cox"]
    print(f"cox finitely generated: {cox['finitely_generated']} ({cox['reason']})")
    if data["redundant_points"]:
        print("redundant points:")
        for p in data["redundant_points"]:
            print(f"  {p['description']}")
    else:
        print("redundant points: none")
    if "numerical_only" in data:
        print(f"note: {data['numerical_only']}")


def cmd_analyze(args) -> int:
    s = _load(args.file)
    data = _analysis(s)
    if args.format == "json":
        print(json_text(data))
    elif args.format == "dot":
        print(data["dual_graph_dot"])
    else:
        _print_analysis_text(data)
    if not data["consistent"]:
        return EXIT_INCONSISTENT
    if args.assert_class:
        if not data["classes"].get(args.assert_class, False):
            return EXIT_ASSERT
    return EXIT_OK


def cmd_decompose(args) -> int:
    s = _load(args.file)
    if args.divisor is not None:
        # argparse drops a "--" value and leaves an empty list
        text = args.divisor if isinstance(args.divisor, str) else "--"
        coords = [input_rational(x, "--divisor coordinate") for x in text.split(",")]
        if len(coords) != s.rank:
            raise InvalidSurfaceData(
                f"--divisor needs {s.rank} comma-separated coordinates"
            )
        d = DivisorClass(s.lattice, tuple(coords))
    else:
        d = s.anticanonical
    z = zariski_decompose(s, d)
    data = {
        "divisor": _class_strings(d),
        "positive": _class_strings(z.positive),
        "negative": _pairs_json(z.negative),
        "positive_square": format_rational(z.positive_square),
        "null_locus": list(z.null),
        "nef_on_catalog": zariski.nef_on_catalog(s, d),
        "big": z.positive_square > 0,
        "ample_on_catalog": zariski.ample_on_catalog(s, d),
        "caveat": CATALOG_CAVEAT,
    }
    if args.format == "json":
        print(json_text(data))
    else:
        print(f"D = [{', '.join(data['divisor'])}]")
        print(f"P = [{', '.join(data['positive'])}]   P^2 = {data['positive_square']}")
        neg = ", ".join(f"{c}*{cid}" for cid, c in data["negative"]) or "0"
        print(f"N = {neg}")
        print(f"null locus: {{{', '.join(data['null_locus'])}}}")
        print(
            f"nef={data['nef_on_catalog']} big={data['big']} "
            f"ample={data['ample_on_catalog']} ({data['caveat']})"
        )
    return EXIT_OK


def cmd_classify(args) -> int:
    s = _load(args.file)
    analysis = AnticanonicalAnalysis(s)
    model = analysis.model
    if args.format == "dot":
        print(singular.dual_graph(s, analysis.model_set).to_dot())
        return EXIT_OK
    data = {
        "exceptional": list(model.exceptional),
        "discrepancies": _pairs_json(model.discrepancies),
        "verdicts": [
            {"tag": v.tag, "component": list(v.component)} for v in model.verdicts
        ],
        "canonical_square": format_rational(model.contracted_canonical_square),
        "caveat": CATALOG_CAVEAT,
    }
    if not s.rational:
        report = analysis.nonrational
        data["nonrational"] = {
            "ok": report.ok,
            "case": report.case,
            "elliptic_curve": report.elliptic_curve,
            "an_chains": [list(c) for c in report.an_chains],
            "factorization": list(report.factorization),
            "message": report.message,
        }
    if args.format == "json":
        print(json_text(data))
    else:
        for verdict in data["verdicts"]:
            print(f"{'+'.join(verdict['component'])}: {verdict['tag']}")
        print(f"contracted canonical square: {data['canonical_square']}")
        if "nonrational" in data:
            nr = data["nonrational"]
            print(
                f"non-rational shape: ok={nr['ok']} case={nr['case']} "
                f"({nr['message']})"
            )
    return EXIT_OK


def cmd_witness(args) -> int:
    s = _load(args.file)
    if args.method == "cone":
        boundary = pairs.construct_klt_boundary_via_cone(s)
    else:
        boundary = pairs.construct_klt_boundary(s)
    data = {
        "method": args.method,
        "components": _pairs_json(boundary.components),
        "floor_is_zero": boundary.floor_is_zero,
        "snc": boundary.snc,
        "caveat": CATALOG_CAVEAT,
    }
    if args.format == "json":
        print(json_text(data))
    else:
        print(f"boundary ({args.method}): {boundary.describe()}")
        print(f"floor_is_zero={boundary.floor_is_zero} snc={boundary.snc} ({CATALOG_CAVEAT})")
    return EXIT_OK


def cmd_blowup(args) -> int:
    s = _load(args.file)
    if s.rank + 1 > MAX_RANK:
        raise InvalidSurfaceData(
            f"blowup would raise Picard rank {s.rank} to {s.rank + 1}, "
            f"which exceeds the cap {MAX_RANK}"
        )
    if len(s.catalog) + 1 > MAX_CURVES:
        raise InvalidSurfaceData(
            f"blowup would raise the catalog size {len(s.catalog)} to "
            f"{len(s.catalog) + 1}, which exceeds the cap {MAX_CURVES}"
        )
    analysis = AnticanonicalAnalysis(s)
    points = analysis.redundant_points
    target = None
    for p in points:
        if args.at == ",".join(p.curve_ids) or (
            p.point_id is not None and args.at == p.point_id
        ):
            target = p
            break
    if target is None:
        # ids cut short, and whole points listed while they fit in 700
        # characters, so the message stays one line under 1 kB
        known, room = [], 700
        for p in points:
            text = p._describe(reprlib.repr)
            room -= len(text) + 2
            if room < 0:
                known.append(f"{len(points) - len(known)} more")
                break
            known.append(text)
        raise InvalidSurfaceData(
            f"no redundant point matches {reprlib.repr(args.at)} "
            f"(known: {'; '.join(known) or 'none'})"
        )
    result = redundant_blow_up(analysis, target)
    sys.stdout.write(dumps(result.model))
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.count < 0:
        raise InvalidSurfaceData(f"--count {args.count} is below 0")
    # every base has Picard rank >= 1, so a cap of 0 could never draw
    if not 1 <= args.max_rank <= MAX_RANK:
        raise InvalidSurfaceData(
            f"--max-rank {args.max_rank} is outside 1..{MAX_RANK}, the rank cap"
        )
    summary = run_corpus(args.seed, args.count, max_rank=args.max_rank)
    print(summary.render())
    if summary.inconsistencies:
        return EXIT_INCONSISTENT
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description=(
            "Exact anticanonical geometry of surfaces relative to a declared "
            "curve catalog: Zariski decompositions, discrepancies, and log "
            "del Pezzo pair classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json", "dot")):
        p.add_argument("--format", choices=choices, default="text")

    p_analyze = sub.add_parser("analyze", help="full report for a surface file")
    p_analyze.add_argument("file")
    add_format(p_analyze)
    p_analyze.add_argument(
        "--assert",
        dest="assert_class",
        choices=KLT_CLASSES + WEAK_CLASSES,
        help="exit 1 unless the named class verdict is true",
    )

    p_dec = sub.add_parser("decompose", help="Zariski decomposition of a divisor")
    p_dec.add_argument("file")
    p_dec.add_argument("--divisor", help="comma-separated coordinates (default -K)")
    add_format(p_dec, ("text", "json"))

    p_cls = sub.add_parser("classify", help="singularities of the anticanonical model")
    p_cls.add_argument("file")
    add_format(p_cls)

    p_wit = sub.add_parser("witness", help="boundary divisor certifying the klt class")
    p_wit.add_argument("file")
    p_wit.add_argument("--method", choices=("direct", "cone"), default="direct")
    add_format(p_wit, ("text", "json"))

    p_blow = sub.add_parser("blowup", help="apply a redundant blow-up, print the new surface")
    p_blow.add_argument("file")
    p_blow.add_argument(
        "--at",
        required=True,
        help="redundant point: a curve id, 'a,b' for a shared point, or a point id",
    )

    p_cor = sub.add_parser("corpus", help="random consistency harness")
    p_cor.add_argument("--seed", type=int, required=True)
    p_cor.add_argument("--count", type=int, required=True)
    p_cor.add_argument("--max-rank", type=int, default=MAX_DRAW_RANK)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up when called, so a rebound ``cmd_<name>`` is the one run
        return globals()[f"cmd_{args.command}"](args)
    except InvalidSurfaceData as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
