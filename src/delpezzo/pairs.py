"""Deciders and witness generators for log del Pezzo pair classes.

Two coefficient criteria drive everything, both read off the Zariski
decomposition -K = P + N relative to the catalog:

* a boundary making the surface a klt del Pezzo pair exists iff -K is big
  and every N-coefficient is < 1; the witness is N + eps*L with L a
  Null(P)-supported class of degree -1 on every Null curve;
* a boundary making it a weak lc del Pezzo pair exists iff every
  N-coefficient is <= 1; the witness is N itself.

Every verdict is relative to the declared catalog and says so.  A verdict
with member=True always carries a witness that was machine-verified before
being returned.  A surface whose catalog gives no -K = P + N has no verdict:
each function below that reads -K raises the decomposition's error.

The decomposition is unique, so ``AnticanonicalAnalysis`` computes it once
per surface and every decider reads it from there.
"""
from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import (
    CatalogInsufficient,
    GeometryError,
    NotSimpleNormalCrossings,
    PreconditionFailure,
    RedundancyViolation,
)
from .lattice import Q, _solve_integers, format_rational
from .singular import (
    KLT_TAGS,
    LC_TAGS,
    _as_boundary,
    _as_ids,
    connected_components,
    contract,
    discrepancies_with_boundary,
    is_snc_configuration,
)
from .surface import BlowUpRecord, SurfaceModel, _Stage, blow_up, extend_to
from .zariski import (
    CATALOG_CAVEAT,
    ZariskiDecomposition,
    ample_on_catalog,
    combination_degrees,
    nef_on_catalog,
    zariski_decompose,
)

KLT_CLASSES = (
    "klt_model",
    "klt_any_boundary",
    "klt_snc_boundary",
    "klt_log_resolution",
    "klt_minimal_resolution",
)
WEAK_CLASSES = (
    "weak_lc_model",
    "weak_lc_any_boundary",
    "weak_lc_snc_boundary",
    "weak_lc_log_resolution",
    "weak_lc_minimal_resolution",
)


class BoundaryDivisor(namedtuple("BoundaryDivisor", "components floor_is_zero snc")):
    __slots__ = ()

    def describe(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*{cid}" for cid, c in self.components
        )


def make_boundary(s: SurfaceModel, components) -> BoundaryDivisor:
    pairs = _as_boundary(s, components)
    snc = is_snc_configuration(s, [cid for cid, _ in pairs])
    return BoundaryDivisor(pairs, all(c.numerator < c.denominator for _, c in pairs), snc)


# multipliers: the class L on Null(P), as (curve_id, coefficient) pairs
WitnessParams = namedtuple("WitnessParams", "epsilon multipliers")

# applicable is False only on the klt verdict of a surface whose -K is not big
ClassVerdict = namedtuple(
    "ClassVerdict",
    "member witness reason caveat applicable",
    defaults=(None, "", CATALOG_CAVEAT, True),
)


# ---------------------------------------------------------------------------
# boundary validators

# Both read the record's components afresh with make_boundary and decide
# from the flags it computes, so their verdict depends on (s, components)
# only: a hand-built record cannot vouch for itself.  The main witness
# branch builds its record with make_boundary and runs _klt_checks on it
# directly, so it reads its boundary once.  The weak verdict tests only
# its record's snc flag: its boundary is N, so -(K + N) is P, whose
# nefness zariski._verify has already checked.

def validate_klt_del_pezzo(s: SurfaceModel, boundary: BoundaryDivisor) -> tuple[bool, str]:
    """(X, boundary) is a klt del Pezzo pair relative to the catalog:
    snc support, all coefficients < 1, -(K + boundary) catalog-ample."""
    return _klt_checks(s, make_boundary(s, boundary.components))


def validate_weak_lc_del_pezzo(s: SurfaceModel, boundary: BoundaryDivisor) -> tuple[bool, str]:
    """Weak variant: snc support, coefficients <= 1, -(K + boundary) nef."""
    read = make_boundary(s, boundary.components)
    if not read.snc:
        return False, "boundary support is not snc"
    if not nef_on_catalog(s, s.anticanonical - s.class_of(read.components)):
        return False, "-(K + boundary) is not nef on the catalog"
    return True, "validated"


def _klt_checks(s: SurfaceModel, read: BoundaryDivisor) -> tuple[bool, str]:
    """The klt validator's checks on a record make_boundary has just built."""
    if not read.snc:
        return False, "boundary support is not snc"
    if not read.floor_is_zero:
        return False, "boundary has a coefficient >= 1"
    target = s.anticanonical - s.class_of(read.components)
    if not ample_on_catalog(s, target):
        return False, "-(K + boundary) is not ample on the catalog"
    return True, "validated"


# ---------------------------------------------------------------------------
# witness construction

def _witness(
    analysis: AnticanonicalAnalysis, via_cone: bool
) -> tuple[BoundaryDivisor, WitnessParams]:
    """The klt witness N + eps*L, read off the analysis's -K = P + N.

    With Null(P) empty the witness is the empty boundary, unchecked: N = 0,
    and zariski._verify found P = -K positive on every catalog curve, so
    with P^2 > 0 -K is catalog-ample.  Otherwise _klt_checks on N + eps*L
    is the one gate; once P^2 > 0 and max N < 1, exact algebra settles the
    rest.  Null(P) is snc: N's coefficients there solve M n = -K.C, and
    curves meet non-negatively, so n_T >= (-M_T)^-1 (K.C)_T on each T in
    Null(P), a Stieltjes matrix's inverse being >= 0.  So n_C >= 1 +
    (2p_a - 2)/(-C^2) >= 1 on a singular C (p_a >= 1), and n_C, n_D >= 1 on
    smooth rational C, D with C.D >= 2, as (-M_T)(1, 1) <= (K.C)_T.
    L > 0: P^perp is negative definite (Hodge index), so -M is a Stieltjes
    matrix, its inverse is >= 0 with a positive diagonal, and rhs < 0.

    L's class is never built.  L lives on Null(P), so P.L = 0, and
    L.C_i = rhs_i on each Null(P) curve by the solve, so the square guard
    reads (P - eps*L)^2 = P^2 + eps^2 * sum l_i rhs_i, with the
    decomposition's P^2; eps's degree bound reads L's degrees off the table
    rows and finds the least P.C / L.C by cross-multiplying integers, so it
    builds one Fraction."""
    s, z = analysis.s, analysis.decomposition
    p_square, max_coefficient = z.positive_square, z.max_coefficient
    if p_square <= 0:
        raise PreconditionFailure("not a big anticanonical surface")
    if max_coefficient >= 1:
        raise PreconditionFailure(
            "negative part has a coefficient >= 1; no klt boundary exists"
        )
    null_ids = z.null
    if not null_ids:
        return make_boundary(s, ()), WitnessParams(Q(0), ())

    if via_cone:
        # an interior point of the cone on Null(P): weight each curve by how
        # much positive catalog geometry it meets, then solve for negative
        # degrees; the line through A = P - eps*L and P exits through L
        outside = [r.curve_id not in null_ids for r in s.catalog]
        rhs = []
        for cid in null_ids:
            positions, values = s.nonzeros(s.position(cid))
            meets = sum(1 for k, v in zip(positions, values) if v > 0 and outside[k])
            rhs.append(-(1 + meets))
    else:
        rhs = [-1] * len(null_ids)
    ys, y_den = _solve_integers(s.gram_of(null_ids), rhs)
    multipliers = tuple((cid, Q(y, y_den)) for cid, y in zip(null_ids, ys))

    epsilon = (1 - max_coefficient) * y_den / (2 * max(ys))
    # Null(P) is where P has degree zero, so only other curves give a bound
    l_degrees, _ = combination_degrees(s, zip(null_ids, ys))
    p_least, l_least = 0, 0  # the least P.C / L.C so far, 0/0 before any
    for p_degree, l_degree in zip(s.degrees(z.positive), l_degrees):
        if p_degree > 0 and l_degree > 0:
            if not l_least or p_degree * l_least < p_least * l_degree:
                p_least, l_least = p_degree, l_degree
    if l_least:
        epsilon = min(epsilon, Q(p_least * y_den, 2 * l_least * z.positive.den))
    # the formula controls degrees; the square needs its own guard
    l_square = Q(sum(map(mul, ys, rhs)), y_den)
    while p_square + epsilon * epsilon * l_square <= 0:
        epsilon /= 2

    merged: dict[str, Q] = {cid: coeff for cid, coeff in z.negative}
    for cid, coeff in multipliers:
        merged[cid] = merged.get(cid, Q(0)) + epsilon * coeff
    boundary = make_boundary(s, [(cid, merged[cid]) for cid in null_ids])
    ok, why = _klt_checks(s, boundary)
    if not ok:
        raise CatalogInsufficient(f"catalog insufficient: {why}")
    return boundary, WitnessParams(epsilon, multipliers)


def construct_klt_boundary(s: SurfaceModel) -> BoundaryDivisor:
    """The direct witness: L solves (L . E) = -1 on every Null(P) curve."""
    return AnticanonicalAnalysis(s).witness[0]


def construct_klt_boundary_via_cone(s: SurfaceModel) -> BoundaryDivisor:
    """Alternative witness through an interior point of Cone(Null(P))."""
    return _witness(AnticanonicalAnalysis(s), via_cone=True)[0]


# ---------------------------------------------------------------------------
# deciders

def decide_klt_pair_exists(s: SurfaceModel) -> ClassVerdict:
    """Does some effective boundary make the surface a klt del Pezzo pair?

    Member iff -K is big (positive part square > 0) and every coefficient of
    the negative part is < 1; the returned witness is the validated snc
    boundary supported on Null(P).  CatalogInsufficient if -K has no P + N.
    """
    return AnticanonicalAnalysis(s).klt_verdict


def decide_weak_lc_pair_exists(s: SurfaceModel) -> ClassVerdict:
    """Does some effective boundary make the surface a weak lc del Pezzo
    pair?  Member iff N is snc with coefficients <= 1; the witness is N."""
    return AnticanonicalAnalysis(s).weak_verdict


# ---------------------------------------------------------------------------
# log-resolution route (downstairs surface smooth)

ResolutionCheck = namedtuple(
    "ResolutionCheck",
    "effective discrepancies pair_is_klt pair_is_lc resolved",
)


def _is_klt(discs, boundary) -> bool:
    """Every discrepancy is > -1 and every boundary coefficient < 1."""
    return all(a > -1 for _, a in discs) and all(c < 1 for _, c in boundary)


def check_EP_condition(
    s_down: SurfaceModel, boundary, records: tuple[BlowUpRecord, ...]
) -> ResolutionCheck:
    """Effectivity of -(K_X + strict boundary) + f^*(K_Y + boundary) for the
    log resolution obtained by applying ``records`` to a smooth model.

    The resolution grows on one stage and becomes one model; with no
    records it is ``s_down`` itself."""
    s_up = s_down
    if records:
        stage = _Stage.of(s_down)
        for rec in records:
            stage.blow_up(rec)
        s_up = stage.model()
    new_ids = [b.exceptional_id for b in s_up.blowups[len(s_down.blowups):]]
    boundary = _as_boundary(s_up, boundary, new_ids)
    if not is_snc_configuration(s_up, [cid for cid, _ in boundary] + new_ids):
        raise NotSimpleNormalCrossings(
            "total transform of the boundary is not snc; not a log resolution"
        )
    # the comparison divisor is minus the discrepancies
    discs = discrepancies_with_boundary(s_up, new_ids, boundary)
    return ResolutionCheck(
        effective=all(a <= 0 for _, a in discs),
        discrepancies=discs,
        pair_is_klt=_is_klt(discs, boundary),
        pair_is_lc=all(a >= -1 for _, a in discs),
        resolved=s_up,
    )


# ---------------------------------------------------------------------------
# pushforward

PushforwardResult = namedtuple(
    "PushforwardResult", "boundary_downstairs discrepancies klt ample klt_del_pezzo reason"
)


def pushforward_pair(s: SurfaceModel, contracted, boundary) -> PushforwardResult:
    """Push a pair down a contraction and re-certify it there.

    The downstairs boundary drops the contracted components; klt-ness is
    read off the total discrepancies, ampleness off the pulled-back
    log-anticanonical class evaluated on the surviving catalog.
    """
    ids = _as_ids(s, contracted)
    down = tuple((cid, c) for cid, c in _as_boundary(s, boundary) if cid not in ids)
    discs = discrepancies_with_boundary(s, ids, down)
    klt = _is_klt(discs, down)
    # f^*(K_Y + Delta_Y) = K_X + strict Delta_Y - sum a_i E_i
    pulled = s.canonical + s.class_of(down) - s.class_of(discs)
    target = -pulled
    ample = target.square > 0 and all(
        v > 0 for r, v in zip(s.catalog, s.degrees(target)) if r.curve_id not in ids
    )
    if klt and ample:
        reason = "pushforward re-certified as a klt del Pezzo pair"
    elif not klt:
        worst = min(discs, key=lambda item: item[1], default=None)
        reason = (
            "not klt downstairs"
            if worst is None
            else f"not klt: discrepancy {format_rational(worst[1])} on {worst[0]!r}"
        )
    else:
        reason = "log anticanonical class not ample on the catalog image"
    return PushforwardResult(down, discs, klt, ample, klt and ample, reason)


# ---------------------------------------------------------------------------
# redundant points

class RedundantPoint(
    namedtuple("RedundantPoint", "kind curve_ids multiplicity point_id", defaults=(None,))
):
    """``kind`` is "generic" or "shared"."""

    __slots__ = ()

    def describe(self) -> str:
        return self._describe(repr)

    def _describe(self, quote) -> str:
        """``describe`` with each id quoted by ``quote``."""
        mult = format_rational(self.multiplicity)
        if self.kind == "generic":
            return f"generic point of {quote(self.curve_ids[0])}, mult {mult}"
        return (
            f"shared point {quote(self.point_id)} of {quote(self.curve_ids[0])} and "
            f"{quote(self.curve_ids[1])}, mult {mult}"
        )


def find_redundant_points(s: SurfaceModel) -> tuple[RedundantPoint, ...]:
    """Catalog-expressible points where the negative part has mult >= 1.

    Generic points of an N-curve have multiplicity equal to its coefficient
    (a generic point is a smooth point even on a singular curve); recorded
    shared points of two N-curves add the two coefficients.  Multiplicities
    at singular points of an N-curve are not representable — no singular
    point is ever recorded — and are deliberately not enumerated.
    """
    return AnticanonicalAnalysis(s).redundant_points


RedundantBlowUp = namedtuple(
    "RedundantBlowUp",
    "model exceptional_id pulled_back_positive negative_before negative_after",
)


def redundant_blow_up(
    analysis: AnticanonicalAnalysis, location: RedundantPoint
) -> RedundantBlowUp:
    """Blow up a redundant point of the analysis's surface and verify the
    decomposition pullback law: the new positive part is the pullback of
    the old, and the new negative part is the pullback of the old minus the
    exceptional curve."""
    s, z_before = analysis.s, analysis.decomposition
    rec = BlowUpRecord(
        point_id=f"r{len(s.blowups) + 1}",
        incidences=tuple((cid, 1) for cid in location.curve_ids),
    )
    s_new = blow_up(s, rec)
    exc_id = s_new.blowups[-1].exceptional_id
    z_after = zariski_decompose(s_new, s_new.anticanonical)

    expected_positive = extend_to(z_before.positive, s_new)
    if z_after.positive != expected_positive:
        raise RedundancyViolation(
            "positive part is not the pullback; the point was not redundant"
        )
    # pullback of N adds mult * E for each incident curve, then E is removed
    incident_mult = sum(
        dict(z_before.negative).get(cid, Q(0)) for cid in location.curve_ids
    )
    expected: dict[str, Q] = dict(z_before.negative)
    e_coeff = incident_mult - 1
    if e_coeff < 0:
        raise RedundancyViolation("multiplicity below 1; the point was not redundant")
    if e_coeff > 0:
        expected[exc_id] = e_coeff
    actual = dict(z_after.negative)
    if actual != expected:
        raise RedundancyViolation(
            "negative part does not satisfy N_new = pullback(N) - E"
        )
    return RedundantBlowUp(
        model=s_new,
        exceptional_id=exc_id,
        pulled_back_positive=z_after.positive,
        negative_before=z_before.negative,
        negative_after=z_after.negative,
    )


# ---------------------------------------------------------------------------
# non-rational classification and the Cox verdict

NonRationalReport = namedtuple(
    "NonRationalReport", "ok case elliptic_curve an_chains factorization message"
)


def _blow_down_simulation(s: SurfaceModel, null_ids: tuple[str, ...]):
    """Castelnuovo-contract smooth rational (-1)-curves inside Null(P).

    Works on Null(P)'s intersection matrix: repeatedly drop the first
    remaining smooth curve of arithmetic genus 0 and self-intersection -1.
    Dropping E with m = C.E adds (C.E)(D.E) to C.D and m(m-1)/2 to p_a(C);
    a curve with m >= 2 becomes singular.  Returns (factorization order,
    survivors, reduced intersections, arithmetic genera, smoothness).
    """
    entries = s.gram_of(null_ids).entries
    dot = {a: dict(zip(null_ids, row)) for a, row in zip(null_ids, entries)}
    p_a = {cid: s.curve(cid).p_a for cid in null_ids}
    smooth = {cid: s.curve(cid).smooth for cid in null_ids}
    survivors = list(null_ids)
    dropped: list[str] = []
    while True:
        e = next(
            (c for c in survivors if p_a[c] == 0 and smooth[c] and dot[c][c] == -1),
            None,
        )
        if e is None:
            return tuple(dropped), survivors, dot, p_a, smooth
        survivors.remove(e)
        dropped.append(e)
        for c in survivors:
            m = dot[c][e]
            p_a[c] += m * (m - 1) // 2
            smooth[c] = smooth[c] and m < 2
            for d in survivors:
                dot[c][d] += m * dot[d][e]


def classify_nonrational(
    s: SurfaceModel, contracted=None
) -> NonRationalReport:
    """Shape check for non-rational models: one smooth genus-one section
    contracted to a simple elliptic point, everything else disjoint chains
    of (-2)-curves, reached from the minimal resolution by redundant
    blow-ups.  ``contracted`` picks which curves define the model under
    judgment (default: all of Null(P), the anticanonical model).  A base
    other than an elliptic ruled one is rejected before -K is read."""
    contracted_ids = None if contracted is None else _as_ids(s, contracted)
    return _classify_nonrational(AnticanonicalAnalysis(s), contracted_ids)


def _classify_nonrational(
    analysis: AnticanonicalAnalysis, contracted_ids
) -> NonRationalReport:
    s = analysis.s

    def reject(message, chains=(), factorization=()):
        return NonRationalReport(False, None, None, chains, factorization, message)

    if s.base.kind != "ruled" or s.base.genus < 1:
        return reject("requires a ruled surface over a curve of genus >= 1")
    if s.base.genus >= 2:
        return reject(
            "inconsistent with the non-rational classification: the base must "
            "be a smooth elliptic curve (genus 1)"
        )
    if not analysis.big:
        return reject("not a big anticanonical surface")
    null_ids = analysis.decomposition.null
    factorization, survivors, dot, p_a, smooth = _blow_down_simulation(s, null_ids)
    elliptics = [cid for cid in survivors if p_a[cid] == 1]
    if len(elliptics) != 1:
        return reject(
            f"inconsistent with the classification: expected exactly one "
            f"genus-one section on the minimal resolution, found {len(elliptics)}",
            factorization=factorization,
        )
    section = elliptics[0]
    if not smooth[section]:
        return reject(
            "the genus-one curve is not smooth; it cannot be contracted to a "
            "simple elliptic point",
            factorization=factorization,
        )
    others = [cid for cid in survivors if cid != section]
    for cid in others:
        if p_a[cid] != 0 or dot[cid][cid] != -2:
            return reject(
                f"exceptional curve {cid!r} is not a (-2)-curve on the minimal "
                "resolution",
                factorization=factorization,
            )
        if dot[cid][section] != 0:
            return reject(
                f"(-2)-curve {cid!r} meets the elliptic section; inconsistent "
                "with the classification",
                factorization=factorization,
            )
    # Null(P)'s classes are independent (every declared curve meets an ample
    # class of the base), so by Hodge index the section's reduced square is
    # negative; adjunction then gives N = pi^*S - sum F_j over the blown-down
    # curves, and N >= 0 forces N = S with coefficient 1
    chains = connected_components(s, others) if others else ()
    case = 1 if section in (null_ids if contracted_ids is None else contracted_ids) else 2
    message = (
        "one simple elliptic point"
        if case == 1
        else "the elliptic section survives; only rational double points are contracted"
    )
    return NonRationalReport(True, case, section, chains, factorization, message)


def cox_finitely_generated(s: SurfaceModel, contracted=None) -> tuple[bool, str]:
    """Is the Cox ring of the contracted model finitely generated?

    True iff the surface is rational or the contraction produces exactly one
    simple elliptic singularity.  PreconditionFailure if no weak lc del
    Pezzo pair exists; CatalogInsufficient if -K has no P + N.
    """
    contracted_ids = None if contracted is None else _as_ids(s, contracted)
    return _cox(AnticanonicalAnalysis(s), contracted_ids)


def _cox(analysis: AnticanonicalAnalysis, ids) -> tuple[bool, str]:
    """``ids`` is None (all of Null(P)) or the contracted ids, already read."""
    verdict = analysis.weak_verdict
    if not verdict.member:
        raise PreconditionFailure(
            f"no weak lc del Pezzo pair on this surface: {verdict.reason}"
        )
    if analysis.s.rational:
        return True, "rational surface: Cox ring finitely generated"
    report = analysis.nonrational if ids is None else _classify_nonrational(analysis, ids)
    if report.ok and report.case == 1:
        return True, (
            "exactly one simple elliptic singularity on the model (case 1): "
            "Cox ring finitely generated"
        )
    if report.ok:
        return False, (
            "non-rational model with only rational double points (case 2): "
            "Picard group, hence Cox ring, not finitely generated"
        )
    return False, report.message


# ---------------------------------------------------------------------------
# the cross-check of the two theorem quintets

class CertifyReport(namedtuple("CertifyReport", "klt weak failures")):
    """``klt`` and ``weak`` hold each quintet as (class name, verdict) pairs
    in the order of KLT_CLASSES and WEAK_CLASSES; ``failures`` lists every
    disagreement found."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return not self.failures


def certify_class_equalities(s: SurfaceModel) -> CertifyReport:
    """Compare the two theorem quintets and report every disagreement.

    Two routes per quintet are computed: the model route (the contraction's
    singularity tags) and the decider (the coefficient criterion plus a
    validated witness).  The snc-boundary, log-resolution and
    minimal-resolution members are the decider's bit: its witness is
    already a validated snc boundary on this surface, so the identity map
    is its log resolution.  Beside the quintets it checks that a
    non-rational weak lc surface with -K big passes the non-rational shape
    check.  Any disagreement is reported, never reconciled.

    Each N-coefficient is the negative of its discrepancy, and a model curve
    outside N has discrepancy 0, by exact algebra rather than by a check:
    P.E = 0 on the model set, so N's coefficients x solve M x = -K.E, and
    ``contract`` solves M a = K.E after finding M negative definite, so
    x = -a.  Nor are the coefficient criteria compared with the deciders:
    a decider is a member only if its criterion holds and its witness
    validates.  If the criterion holds and the witness fails, the identity
    puts every model discrepancy in (-1, 0] (klt) or [-1, 0] (weak), so the
    model member is True and the quintet line reports the disagreement,
    unless a failed contraction has reported its own line.
    """
    return AnticanonicalAnalysis(s).certify


# ---------------------------------------------------------------------------
# the per-surface analysis

def _field(compute):
    """A lazy field: the first read runs ``compute``; later reads return its
    value, or re-raise its GeometryError, without computing again."""

    def read(self):
        if compute not in self._memo:
            try:
                self._memo[compute] = (compute(self), None)
            except GeometryError as exc:
                self._memo[compute] = (None, exc)
        value, error = self._memo[compute]
        if error is not None:
            raise error
        return value

    return property(read, doc=compute.__doc__)


def _worst_coefficient(z: ZariskiDecomposition, relation: str) -> str:
    cid, coeff = max(z.negative, key=lambda item: item[1])
    return f"negative part has coefficient {format_rational(coeff)} {relation} 1 on {cid!r}"


class AnticanonicalAnalysis:
    """Everything read off -K = P + N on one surface.

    Create one per surface and pass it on.  Every field is computed lazily
    and at most once per surface, success or failure: later reads return
    the same value or re-raise the same GeometryError.  No state outlives
    the object.  Without -K = P + N every field re-raises CatalogInsufficient,
    but ``nonrational`` first rejects a base that is not elliptic ruled.
    """

    def __init__(self, s: SurfaceModel):
        self.s = s
        self._memo: dict = {}

    @_field
    def decomposition(self) -> ZariskiDecomposition:
        """-K = P + N relative to the catalog (one zariski_decompose call)."""
        return zariski_decompose(self.s, self.s.anticanonical)

    @_field
    def big(self) -> bool:
        """-K is big on the catalog: P^2 > 0."""
        return self.decomposition.positive_square > 0

    @_field
    def model_set(self) -> tuple[str, ...]:
        """The curves the anticanonical model contracts: Null(P) when -K is
        big, else the support of N."""
        z = self.decomposition
        return z.null if self.big else tuple(cid for cid, _ in z.negative)

    @_field
    def model(self):
        """The contraction of the model set, with its discrepancies."""
        return contract(self.s, self.model_set)

    @_field
    def witness(self) -> tuple[BoundaryDivisor, WitnessParams]:
        """The direct klt witness N + eps*L and its parameters."""
        return _witness(self, via_cone=False)

    @_field
    def klt_verdict(self) -> ClassVerdict:
        """Member iff -K is big and every N-coefficient is < 1."""
        z = self.decomposition
        if not self.big:
            return ClassVerdict(False, reason="not a big anticanonical surface", applicable=False)
        if z.max_coefficient >= 1:
            return ClassVerdict(False, reason=_worst_coefficient(z, ">="))
        try:
            boundary = self.witness[0]
        except GeometryError as exc:
            return ClassVerdict(False, reason=str(exc))
        return ClassVerdict(True, witness=boundary, reason="validated boundary")

    @_field
    def weak_verdict(self) -> ClassVerdict:
        """Member iff every N-coefficient is <= 1 and N's support is snc;
        the witness is N."""
        z = self.decomposition
        if z.max_coefficient > 1:
            return ClassVerdict(False, reason=_worst_coefficient(z, ">"))
        boundary = make_boundary(self.s, z.negative)
        if not boundary.snc:
            return ClassVerdict(False, reason="boundary support is not snc")
        caveat = CATALOG_CAVEAT
        if not self.big:
            caveat += "; anticanonical class is not big on this catalog"
        return ClassVerdict(True, witness=boundary, reason="boundary N validated", caveat=caveat)

    @_field
    def redundant_points(self) -> tuple[RedundantPoint, ...]:
        """Catalog-expressible points where N has multiplicity >= 1."""
        s, negative = self.s, self.decomposition.negative
        found = [
            RedundantPoint("generic", (cid,), c)
            for cid, c in negative
            if c.numerator >= c.denominator
        ]
        # shared points of two N-curves, ordered by the curves' positions
        coeff, position = dict(negative), s.position
        shared = sorted(
            (sorted(map(position, pair)), point_id)
            for pair, point_id in s.incidence.items()
            if pair[0] in coeff and pair[1] in coeff
        )
        for (i, j), point_id in shared:
            a, b = s.catalog[i].curve_id, s.catalog[j].curve_id
            total = coeff[a] + coeff[b]
            if total >= 1:
                found.append(RedundantPoint("shared", (a, b), total, point_id))
        return tuple(found)

    @_field
    def nonrational(self) -> NonRationalReport:
        """The non-rational shape check for the anticanonical model."""
        return _classify_nonrational(self, None)

    @_field
    def cox(self) -> tuple[bool, str]:
        """The Cox verdict for the anticanonical model."""
        return _cox(self, None)

    @_field
    def certify(self) -> CertifyReport:
        """The two theorem quintets, each the model route against the decider,
        and the non-rational shape check."""
        big = self.big  # raises the decomposition's error before the model's try
        failures: list[str] = []
        model_error = None
        model = None
        try:
            model = self.model
        except GeometryError as exc:
            model_error = str(exc)

        # the model route against the decider; the other three members of
        # each quintet are the decider's bit (see certify_class_equalities)
        klt_any = self.klt_verdict.member
        weak_any = self.weak_verdict.member
        klt_model = bool(
            big and model is not None and all(t in KLT_TAGS for t in model.tags)
        )
        weak_model = bool(model is not None and all(t in LC_TAGS for t in model.tags))
        klt = tuple(zip(KLT_CLASSES, (klt_model,) + (klt_any,) * 4))
        weak = tuple(zip(WEAK_CLASSES, (weak_model,) + (weak_any,) * 4))
        if model_error is not None:
            failures.append(f"model contraction failed: {model_error}")
        if klt_model != klt_any:
            failures.append(
                "klt quintet disagrees: " + ", ".join(f"{k}={v}" for k, v in klt)
            )
        if weak_model != weak_any:
            failures.append(
                "weak quintet disagrees: " + ", ".join(f"{k}={v}" for k, v in weak)
            )
        # by the classification, a non-rational weak lc surface with -K big
        # has the shape that the non-rational check looks for
        if weak_any and big and not self.s.rational and not self.nonrational.ok:
            failures.append(
                "non-rational weak lc surface fails the classification: "
                + self.nonrational.message
            )
        return CertifyReport(klt, weak, tuple(failures))
