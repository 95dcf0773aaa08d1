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
being returned.

The decomposition is unique, so ``AnticanonicalAnalysis`` computes it once
per surface and every decider reads it from there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CatalogInsufficient,
    GeometryError,
    NotSimpleNormalCrossings,
    PreconditionFailure,
    RedundancyViolation,
)
from .lattice import DivisorClass, Q, format_rational, solve_linear
from .singular import (
    KLT_TAGS,
    LC_TAGS,
    _as_ids,
    connected_components,
    contract,
    discrepancies_with_boundary,
    is_snc_configuration,
)
from .surface import BlowUpRecord, SurfaceModel, blow_up, extend_to
from .zariski import (
    CATALOG_CAVEAT,
    CurveSet,
    ZariskiDecomposition,
    ample_on_catalog,
    nef_on_catalog,
    null_locus,
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


@dataclass(frozen=True)
class BoundaryDivisor:
    components: tuple[tuple[str, Q], ...]
    floor_is_zero: bool
    snc: bool

    def coefficient(self, curve_id: str) -> Q:
        for cid, coeff in self.components:
            if cid == curve_id:
                return coeff
        return Q(0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.components)

    @property
    def max_coefficient(self) -> Q:
        return max((c for _, c in self.components), default=Q(0))

    def as_class(self, s: SurfaceModel) -> DivisorClass:
        return s.class_of(self.components)

    def describe(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*{cid}" for cid, c in self.components
        )


def make_boundary(s: SurfaceModel, components) -> BoundaryDivisor:
    pairs = tuple((cid, Fraction(c)) for cid, c in components if c != 0)
    for cid, coeff in pairs:
        if coeff < 0 or coeff > 1:
            raise PreconditionFailure(
                f"boundary coefficient {format_rational(coeff)} outside [0, 1]"
            )
    floor_zero = all(c < 1 for _, c in pairs)
    snc = is_snc_configuration(s, tuple(cid for cid, _ in pairs))
    return BoundaryDivisor(pairs, floor_zero, snc)


@dataclass(frozen=True)
class WitnessParams:
    epsilon: Q
    multipliers: tuple[tuple[str, Q], ...]  # the class L on Null(P)


@dataclass(frozen=True)
class ClassVerdict:
    class_tag: str
    member: bool
    witness: BoundaryDivisor | None = None
    reason: str = ""
    caveat: str = CATALOG_CAVEAT
    applicable: bool = True
    params: WitnessParams | None = None


# ---------------------------------------------------------------------------
# boundary validators

def validate_klt_del_pezzo(s: SurfaceModel, boundary: BoundaryDivisor) -> tuple[bool, str]:
    """(X, boundary) is a klt del Pezzo pair relative to the catalog:
    snc support, all coefficients < 1, -(K + boundary) catalog-ample."""
    if not boundary.snc:
        return False, "boundary support is not snc"
    if not boundary.floor_is_zero:
        return False, "boundary has a coefficient >= 1"
    target = s.anticanonical - boundary.as_class(s)
    if not ample_on_catalog(s, target):
        return False, "-(K + boundary) is not ample on the catalog"
    return True, "validated"


def validate_weak_lc_del_pezzo(s: SurfaceModel, boundary: BoundaryDivisor) -> tuple[bool, str]:
    """Weak variant: snc support, coefficients <= 1, -(K + boundary) nef."""
    if not boundary.snc:
        return False, "boundary support is not snc"
    if boundary.max_coefficient > 1:
        return False, "boundary has a coefficient > 1"
    target = s.anticanonical - boundary.as_class(s)
    if not nef_on_catalog(s, target):
        return False, "-(K + boundary) is not nef on the catalog"
    return True, "validated"


# ---------------------------------------------------------------------------
# witness construction

def _interior_multipliers(
    s: SurfaceModel, null_ids: tuple[str, ...], rhs: list[Q]
) -> tuple[tuple[str, Q], ...]:
    matrix = s.gram_of(null_ids)
    solved = solve_linear(matrix, rhs)
    if any(x <= 0 for x in solved):
        raise CatalogInsufficient(
            "catalog insufficient: interior class on Null(P) is not effective"
        )
    return tuple(zip(null_ids, solved))


def _witness(s: SurfaceModel, via_cone: bool, z=None) -> tuple[BoundaryDivisor, WitnessParams]:
    """The klt witness N + eps*L; ``z`` is -K = P + N if the caller has it."""
    if z is None:
        z = zariski_decompose(s, s.anticanonical)
    if z.positive_square <= 0:
        raise PreconditionFailure("not a big anticanonical surface")
    if z.max_coefficient >= 1:
        raise PreconditionFailure(
            "negative part has a coefficient >= 1; no klt boundary exists"
        )
    null = null_locus(s, z)
    if not null.curve_ids:
        boundary = make_boundary(s, z.negative)
        ok, why = validate_klt_del_pezzo(s, boundary)
        if not ok:
            raise CatalogInsufficient(f"catalog insufficient: {why}")
        return boundary, WitnessParams(Q(0), ())

    if not is_snc_configuration(s, null):
        raise NotSimpleNormalCrossings(
            "Null(P) does not have snc support relative to the catalog"
        )

    null_ids = null.curve_ids
    if via_cone:
        # an interior point of the cone on Null(P): weight each curve by how
        # much positive catalog geometry it meets, then solve for negative
        # degrees; the line through A = P - eps*L and P exits through L
        outside = [r for r in s.catalog if r.curve_id not in null_ids]
        rhs = []
        for cid in null_ids:
            cls = s.curve(cid).divisor_class
            meets = sum(1 for r in outside if r.divisor_class.dot(cls) > 0)
            rhs.append(Q(-(1 + meets)))
    else:
        rhs = [Q(-1)] * len(null_ids)
    multipliers = _interior_multipliers(s, null_ids, rhs)
    l_class = s.class_of(multipliers)

    max_n = z.max_coefficient
    max_l = max(c for _, c in multipliers)
    epsilon = (1 - max_n) / (2 * max_l)
    for record in s.catalog:
        if record.curve_id in null_ids:
            continue
        p_degree = z.positive.dot(record.divisor_class)
        l_degree = l_class.dot(record.divisor_class)
        if p_degree > 0 and l_degree > 0:
            candidate = p_degree / (2 * l_degree)
            epsilon = min(epsilon, candidate)
    # the formula controls degrees; the square needs its own guard
    while (z.positive - l_class.scale(epsilon)).square <= 0:
        epsilon /= 2

    merged: dict[str, Q] = {cid: coeff for cid, coeff in z.negative}
    for cid, coeff in multipliers:
        merged[cid] = merged.get(cid, Q(0)) + epsilon * coeff
    boundary = make_boundary(s, [(cid, merged[cid]) for cid in null_ids])
    ok, why = validate_klt_del_pezzo(s, boundary)
    if not ok:
        raise CatalogInsufficient(f"catalog insufficient: {why}")
    return boundary, WitnessParams(epsilon, multipliers)


def construct_klt_boundary(s: SurfaceModel) -> BoundaryDivisor:
    """The direct witness: L solves (L . E) = -1 on every Null(P) curve."""
    return AnticanonicalAnalysis(s).witness[0]


def construct_klt_boundary_via_cone(s: SurfaceModel) -> BoundaryDivisor:
    """Alternative witness through an interior point of Cone(Null(P))."""
    return _witness(s, via_cone=True)[0]


# ---------------------------------------------------------------------------
# deciders

def decide_klt_pair_exists(s: SurfaceModel) -> ClassVerdict:
    """Does some effective boundary make the surface a klt del Pezzo pair?

    Member iff -K is big (positive part square > 0) and every coefficient of
    the negative part is < 1; the returned witness is the validated snc
    boundary supported on Null(P).
    """
    return AnticanonicalAnalysis(s).klt_verdict


def decide_weak_lc_pair_exists(s: SurfaceModel) -> ClassVerdict:
    """Does some effective boundary make the surface a weak lc del Pezzo
    pair?  Member iff every N-coefficient is <= 1; the witness is N."""
    return AnticanonicalAnalysis(s).weak_verdict


# ---------------------------------------------------------------------------
# log-resolution route (downstairs surface smooth)

@dataclass(frozen=True)
class ResolutionCheck:
    effective: bool
    snc_ok: bool
    discrepancies: tuple[tuple[str, Q], ...]
    divisor: tuple[tuple[str, Q], ...]  # coefficients of the comparison divisor
    pair_is_klt: bool
    pair_is_lc: bool
    resolved: SurfaceModel


def check_EP_condition(
    s_down: SurfaceModel, boundary, records: tuple[BlowUpRecord, ...]
) -> ResolutionCheck:
    """Effectivity of -(K_X + strict boundary) + f^*(K_Y + boundary) for the
    log resolution obtained by applying ``records`` to a smooth model."""
    s_up = s_down
    new_ids = []
    for rec in records:
        s_up = blow_up(s_up, rec)
        new_ids.append(s_up.blowups[-1].exceptional_id)
    boundary = tuple((cid, Fraction(c)) for cid, c in boundary)
    support = tuple(cid for cid, _ in boundary)
    snc_ok = is_snc_configuration(s_up, support + tuple(new_ids))
    if not snc_ok:
        raise NotSimpleNormalCrossings(
            "total transform of the boundary is not snc; not a log resolution"
        )
    if new_ids:
        discs = discrepancies_with_boundary(s_up, new_ids, boundary)
    else:
        discs = ()
    divisor = tuple((cid, -a) for cid, a in discs)
    effective = all(c >= 0 for _, c in divisor)
    pair_is_klt = all(a > -1 for _, a in discs) and all(c < 1 for _, c in boundary)
    pair_is_lc = all(a >= -1 for _, a in discs) and all(c <= 1 for _, c in boundary)
    return ResolutionCheck(
        effective=effective,
        snc_ok=snc_ok,
        discrepancies=discs,
        divisor=divisor,
        pair_is_klt=pair_is_klt,
        pair_is_lc=pair_is_lc,
        resolved=s_up,
    )


def check_EP_for_contraction(
    s: SurfaceModel, contracted, boundary_downstairs
) -> tuple[bool, tuple[tuple[str, Q], ...]]:
    """Same effectivity check when the downstairs surface is the contraction
    of ``contracted`` inside ``s`` (given by its minimal resolution).

    The comparison divisor is  -sum a_i E_i + (f^* f_* D - strict f_* D)
    with D the boundary, supported on the exceptional curves; returns the
    effectivity flag and the exceptional coefficients.
    """
    data = contract(s, contracted)
    ids = data.exceptional
    coeffs = {cid: -a for cid, a in data.discrepancies}
    for cid, c in boundary_downstairs:
        if cid in ids:
            raise PreconditionFailure(
                f"boundary component {cid!r} is contracted; push it forward first"
            )
        cls = s.curve(cid).divisor_class
        rhs = [-cls.dot(s.curve(e).divisor_class) for e in ids]
        correction = solve_linear(data.matrix, rhs)
        for e, mu in zip(ids, correction):
            coeffs[e] += Fraction(c) * mu
    divisor = tuple((cid, coeffs[cid]) for cid in ids)
    return all(c >= 0 for _, c in divisor), divisor


# ---------------------------------------------------------------------------
# good boundaries and pushforward (Proposition-style pipeline)

@dataclass(frozen=True)
class GoodBoundaryReport:
    boundary_upstairs: BoundaryDivisor
    boundary_downstairs: tuple[tuple[str, Q], ...]
    ep_divisor: tuple[tuple[str, Q], ...]
    effective: bool
    recertified: bool


def construct_good_boundary(
    s: SurfaceModel, contracted
) -> tuple[tuple[tuple[str, Q], ...], GoodBoundaryReport]:
    """From a klt del Pezzo fixture (minimal resolution + contracted set),
    build a boundary downstairs whose log resolution stays effective.

    The upstairs boundary comes from the direct witness (supported on
    Null(P)); its pushforward drops the contracted components.  Returns the
    downstairs boundary and the verification report.
    """
    analysis = AnticanonicalAnalysis(s)
    contracted_ids = set(s.ordered(_as_ids(contracted)))
    if not contracted_ids.issubset(set(analysis.null.curve_ids)):
        raise PreconditionFailure(
            "contracted curves must have P-degree zero (anticanonical morphism)"
        )
    upstairs = analysis.witness[0]
    downstairs = tuple(
        (cid, c) for cid, c in upstairs.components if cid not in contracted_ids
    )
    effective, divisor = check_EP_for_contraction(
        s, s.ordered(contracted_ids), downstairs
    )
    push = pushforward_pair(s, s.ordered(contracted_ids), upstairs.components)
    report = GoodBoundaryReport(
        boundary_upstairs=upstairs,
        boundary_downstairs=downstairs,
        ep_divisor=divisor,
        effective=effective,
        recertified=push.klt_del_pezzo,
    )
    return downstairs, report


@dataclass(frozen=True)
class PushforwardResult:
    boundary_downstairs: tuple[tuple[str, Q], ...]
    discrepancies: tuple[tuple[str, Q], ...]
    klt: bool
    ample: bool
    klt_del_pezzo: bool
    reason: str


def pushforward_pair(s: SurfaceModel, contracted, boundary) -> PushforwardResult:
    """Push a pair down a contraction and re-certify it there.

    The downstairs boundary drops the contracted components; klt-ness is
    read off the total discrepancies, ampleness off the pulled-back
    log-anticanonical class evaluated on the surviving catalog.
    """
    ids = s.ordered(_as_ids(contracted))
    boundary = tuple((cid, Fraction(c)) for cid, c in boundary if Fraction(c) != 0)
    down = tuple((cid, c) for cid, c in boundary if cid not in ids)
    if ids:
        discs = discrepancies_with_boundary(s, ids, down)
    else:
        discs = ()
    klt = all(a > -1 for _, a in discs) and all(c < 1 for _, c in down)
    # f^*(K_Y + Delta_Y) = K_X + strict Delta_Y - sum a_i E_i
    pulled = s.canonical + s.class_of(down) - s.class_of(discs)
    target = -pulled
    ample = target.square > 0 and all(
        target.dot(r.divisor_class) > 0
        for r in s.catalog
        if r.curve_id not in ids
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

@dataclass(frozen=True)
class RedundantPoint:
    kind: str  # "generic" | "shared"
    curve_ids: tuple[str, ...]
    multiplicity: Q
    point_id: str | None = None

    def describe(self) -> str:
        if self.kind == "generic":
            return (
                f"generic point of {self.curve_ids[0]!r}, "
                f"mult {format_rational(self.multiplicity)}"
            )
        return (
            f"shared point {self.point_id!r} of {self.curve_ids[0]!r} and "
            f"{self.curve_ids[1]!r}, mult {format_rational(self.multiplicity)}"
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


@dataclass(frozen=True)
class RedundantBlowUp:
    model: SurfaceModel
    exceptional_id: str
    pulled_back_positive: DivisorClass
    negative_before: tuple[tuple[str, Q], ...]
    negative_after: tuple[tuple[str, Q], ...]


def redundant_blow_up(s: SurfaceModel, location: RedundantPoint) -> RedundantBlowUp:
    """Blow up a redundant point and verify the decomposition pullback law:
    the new positive part is the pullback of the old, and the new negative
    part is the pullback of the old minus the exceptional curve."""
    z_before = zariski_decompose(s, s.anticanonical)
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
    if z_after.positive_square != z_before.positive_square:
        raise RedundancyViolation("positive-part square changed under pullback")
    return RedundantBlowUp(
        model=s_new,
        exceptional_id=exc_id,
        pulled_back_positive=z_after.positive,
        negative_before=z_before.negative,
        negative_after=z_after.negative,
    )


# ---------------------------------------------------------------------------
# non-rational classification and the Cox verdict

@dataclass(frozen=True)
class NonRationalReport:
    ok: bool
    case: int | None
    elliptic_curve: str | None
    an_chains: tuple[tuple[str, ...], ...]
    factorization: tuple[str, ...]
    message: str


def _blow_down_simulation(s: SurfaceModel, null_ids: tuple[str, ...]):
    """Iteratively blow down redundant (-1)-curves inside Null(P).

    Works on coordinate vectors: a curve whose current class is a pure
    exceptional basis vector with P-degree zero can be dropped, and
    pushforward is coordinate deletion (the basis is orthogonal).  Returns
    (factorization order, final coordinates per null curve, active axes).
    """
    coords = {cid: list(s.curve(cid).divisor_class.coords) for cid in null_ids}
    p_a = {cid: s.curve(cid).p_a for cid in null_ids}
    diag = [s.lattice.gram[i][i] for i in range(s.rank)]
    base_rank = 1 if s.base.kind == "P2" else 2
    active = list(range(s.rank))
    dropped_curves: list[str] = []
    changed = True
    while changed:
        changed = False
        for cid in null_ids:
            if cid in dropped_curves:
                continue
            vec = coords[cid]
            nonzero = [i for i in active if vec[i] != 0]
            if (
                len(nonzero) == 1
                and nonzero[0] >= base_rank
                and vec[nonzero[0]] == 1
                and p_a[cid] == 0
            ):
                axis = nonzero[0]
                active.remove(axis)
                dropped_curves.append(cid)
                changed = True
                break
    survivors = [cid for cid in null_ids if cid not in dropped_curves]
    return tuple(dropped_curves), coords, active, survivors, diag


def classify_nonrational(
    s: SurfaceModel, contracted=None
) -> NonRationalReport:
    """Shape check for non-rational models: one smooth genus-one section
    contracted to a simple elliptic point, everything else disjoint chains
    of (-2)-curves, reached from the minimal resolution by redundant
    blow-ups.  ``contracted`` picks which curves define the model under
    judgment (default: all of Null(P), the anticanonical model)."""
    return _classify_nonrational(AnticanonicalAnalysis(s), contracted)


def _classify_nonrational(
    analysis: AnticanonicalAnalysis, contracted
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
    try:
        z = analysis.decomposition
    except CatalogInsufficient as exc:
        return reject(str(exc))
    if not analysis.big:
        return reject("not a big anticanonical surface")
    null = analysis.null
    factorization, coords, active, survivors, diag = _blow_down_simulation(
        s, null.curve_ids
    )

    def reduced_dot(a, b):
        return sum(coords[a][i] * coords[b][i] * diag[i] for i in active)

    elliptics = [cid for cid in survivors if s.curve(cid).p_a == 1]
    if len(elliptics) != 1:
        return reject(
            f"inconsistent with the classification: expected exactly one "
            f"genus-one section on the minimal resolution, found {len(elliptics)}",
            factorization=factorization,
        )
    section = elliptics[0]
    if not s.curve(section).smooth:
        return reject(
            "the genus-one curve is not smooth; it cannot be contracted to a "
            "simple elliptic point",
            factorization=factorization,
        )
    if reduced_dot(section, section) >= 0:
        return reject(
            "the genus-one section has non-negative self-intersection on the "
            "minimal resolution",
            factorization=factorization,
        )
    others = [cid for cid in survivors if cid != section]
    for cid in others:
        if s.curve(cid).p_a != 0 or reduced_dot(cid, cid) != -2:
            return reject(
                f"exceptional curve {cid!r} is not a (-2)-curve on the minimal "
                "resolution",
                factorization=factorization,
            )
        if reduced_dot(cid, section) != 0:
            return reject(
                f"(-2)-curve {cid!r} meets the elliptic section; inconsistent "
                "with the classification",
                factorization=factorization,
            )
    chains = connected_components(s, others) if others else ()
    if any(cid != section for cid, _ in z.negative):
        return reject(
            "negative part is not the strict transform of the section alone",
            chains,
            factorization,
        )
    if z.coefficient(section) != 1:
        return reject(
            "section coefficient in the negative part is not 1", chains, factorization
        )
    contracted_ids = set(
        _as_ids(contracted) if contracted is not None else null.curve_ids
    )
    case = 1 if section in contracted_ids else 2
    message = (
        "one simple elliptic point"
        if case == 1
        else "the elliptic section survives; only rational double points are contracted"
    )
    return NonRationalReport(True, case, section, chains, factorization, message)


def cox_finitely_generated(s: SurfaceModel, contracted=None) -> tuple[bool, str]:
    """Is the Cox ring of the contracted model finitely generated?

    True iff the surface is rational or the contraction produces exactly one
    simple elliptic singularity.  Precondition: the surface carries a weak
    lc del Pezzo pair (decide_weak_lc_pair_exists is true).
    """
    return _cox(AnticanonicalAnalysis(s), contracted)


def _cox(analysis: AnticanonicalAnalysis, contracted) -> tuple[bool, str]:
    verdict = analysis.weak_verdict
    if not verdict.member:
        raise PreconditionFailure(
            f"no weak lc del Pezzo pair on this surface: {verdict.reason}"
        )
    if analysis.s.rational:
        return True, "rational surface: Cox ring finitely generated"
    report = analysis.nonrational if contracted is None else _classify_nonrational(analysis, contracted)
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

@dataclass(frozen=True)
class CertifyReport:
    applicable: bool
    klt: tuple[tuple[str, bool], ...]
    weak: tuple[tuple[str, bool], ...]
    klt_consistent: bool
    weak_consistent: bool
    failures: tuple[str, ...]
    klt_member: bool
    weak_member: bool

    @property
    def consistent(self) -> bool:
        return self.klt_consistent and self.weak_consistent and not self.failures


def certify_class_equalities(s: SurfaceModel) -> CertifyReport:
    """Run all ten class deciders and assert the two theorem equalities.

    The model route (contraction discrepancies) and the boundary routes
    (coefficient criteria plus validated witnesses) are computed
    independently; any disagreement is reported, never reconciled.
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
    the object.
    """

    def __init__(self, s: SurfaceModel):
        self.s = s
        self._memo: dict = {}

    @_field
    def decomposition(self) -> ZariskiDecomposition:
        """-K = P + N relative to the catalog (one zariski_decompose call)."""
        return zariski_decompose(self.s, self.s.anticanonical)

    @_field
    def null(self) -> CurveSet:
        """Null(P): the catalog curves of P-degree zero."""
        return null_locus(self.s, self.decomposition)

    @_field
    def big(self) -> bool:
        """-K is big on the catalog: P^2 > 0."""
        return self.decomposition.positive_square > 0

    @_field
    def model_set(self) -> tuple[str, ...]:
        """The curves the anticanonical model contracts: Null(P) when -K is
        big, else the support of N."""
        if self.big:
            return self.null.curve_ids
        return tuple(cid for cid, _ in self.decomposition.negative)

    @_field
    def model(self):
        """The contraction of the model set, with its discrepancies."""
        return contract(self.s, self.model_set)

    @_field
    def witness(self) -> tuple[BoundaryDivisor, WitnessParams]:
        """The direct klt witness N + eps*L and its parameters."""
        return _witness(self.s, via_cone=False, z=self.decomposition)

    @_field
    def klt_verdict(self) -> ClassVerdict:
        """Member iff -K is big and every N-coefficient is < 1."""
        tag = "klt_any_boundary"
        try:
            z = self.decomposition
        except CatalogInsufficient as exc:
            return ClassVerdict(tag, False, reason=str(exc), applicable=False)
        if not self.big:
            return ClassVerdict(
                tag, False, reason="not a big anticanonical surface", applicable=False
            )
        if z.max_coefficient >= 1:
            return ClassVerdict(tag, False, reason=_worst_coefficient(z, ">="))
        try:
            boundary, params = self.witness
        except GeometryError as exc:
            return ClassVerdict(tag, False, reason=str(exc))
        return ClassVerdict(
            tag, True, witness=boundary, reason="validated boundary", params=params
        )

    @_field
    def weak_verdict(self) -> ClassVerdict:
        """Member iff every N-coefficient is <= 1; the witness is N."""
        tag = "weak_lc_any_boundary"
        try:
            z = self.decomposition
        except CatalogInsufficient as exc:
            return ClassVerdict(tag, False, reason=str(exc), applicable=False)
        if z.max_coefficient > 1:
            return ClassVerdict(tag, False, reason=_worst_coefficient(z, ">"))
        boundary = make_boundary(self.s, z.negative)
        ok, why = validate_weak_lc_del_pezzo(self.s, boundary)
        if not ok:
            return ClassVerdict(tag, False, reason=why)
        caveat = CATALOG_CAVEAT
        if not self.big:
            caveat += "; anticanonical class is not big on this catalog"
        return ClassVerdict(tag, True, witness=boundary, reason="boundary N validated", caveat=caveat)

    @_field
    def redundant_points(self) -> tuple[RedundantPoint, ...]:
        """Catalog-expressible points where N has multiplicity >= 1."""
        z = self.decomposition
        coeff = dict(z.negative)
        found = []
        for cid, c in z.negative:
            if c >= 1:
                found.append(RedundantPoint("generic", (cid,), c))
        support = [cid for cid, _ in z.negative]
        for i, a in enumerate(support):
            for b in support[i + 1:]:
                total = coeff[a] + coeff[b]
                if total < 1:
                    continue
                for point_id, _, _ in self.s.shared_points(a, b):
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
        """The ten class deciders and the two theorem equalities."""
        s = self.s
        failures: list[str] = []
        try:
            z = self.decomposition
        except CatalogInsufficient as exc:
            empty_klt = tuple((name, False) for name in KLT_CLASSES)
            empty_weak = tuple((name, False) for name in WEAK_CLASSES)
            return CertifyReport(
                False, empty_klt, empty_weak, True, True, (str(exc),), False, False
            )

        big = self.big
        model_set = self.model_set
        model_error = None
        model = None
        try:
            model = self.model
        except GeometryError as exc:
            model_error = str(exc)

        if model is not None:
            # independent identity: N-coefficients are minus the discrepancies
            discs = dict(model.discrepancies)
            for cid, coeff in z.negative:
                if cid in discs and discs[cid] != -coeff:
                    failures.append(
                        f"negative-part coefficient of {cid!r} does not equal minus "
                        "its discrepancy"
                    )
            n_support = dict(z.negative)
            for cid in model_set:
                if cid not in n_support and discs.get(cid, Q(0)) != 0:
                    failures.append(
                        f"curve {cid!r} has nonzero discrepancy but zero N-coefficient"
                    )

        klt_decision = self.klt_verdict
        weak_decision = self.weak_verdict

        klt_model = bool(
            big and model is not None and all(t in KLT_TAGS for t in model.tags)
        )
        klt_any = klt_decision.member
        klt_snc = bool(
            klt_any
            and klt_decision.witness is not None
            and validate_klt_del_pezzo(s, klt_decision.witness)[0]
        )
        if klt_any and klt_decision.witness is not None:
            identity = check_EP_condition(s, klt_decision.witness.components, ())
            klt_log_res = identity.effective and klt_snc
        else:
            klt_log_res = False
        klt_min_res = klt_snc

        weak_model = bool(model is not None and all(t in LC_TAGS for t in model.tags))
        if model_error is not None:
            weak_model = False
        weak_any = weak_decision.member
        weak_snc = bool(
            weak_any
            and weak_decision.witness is not None
            and validate_weak_lc_del_pezzo(s, weak_decision.witness)[0]
        )
        if weak_any and weak_decision.witness is not None:
            identity = check_EP_condition(s, weak_decision.witness.components, ())
            weak_log_res = identity.effective and weak_snc
        else:
            weak_log_res = False
        weak_min_res = weak_snc

        klt = tuple(
            zip(KLT_CLASSES, (klt_model, klt_any, klt_snc, klt_log_res, klt_min_res))
        )
        weak = tuple(
            zip(WEAK_CLASSES, (weak_model, weak_any, weak_snc, weak_log_res, weak_min_res))
        )
        klt_consistent = len({v for _, v in klt}) == 1
        weak_consistent = len({v for _, v in weak}) == 1
        if model_error is not None:
            failures.append(f"model contraction failed: {model_error}")
        if not klt_consistent:
            failures.append(
                "klt quintet disagrees: " + ", ".join(f"{k}={v}" for k, v in klt)
            )
        if not weak_consistent:
            failures.append(
                "weak quintet disagrees: " + ", ".join(f"{k}={v}" for k, v in weak)
            )
        # coefficient criteria cross-check
        coeff_klt = big and z.max_coefficient < 1
        if coeff_klt != klt_any:
            failures.append("klt coefficient criterion disagrees with the decider")
        coeff_weak = z.max_coefficient <= 1
        if coeff_weak != weak_any:
            failures.append("weak coefficient criterion disagrees with the decider")
        return CertifyReport(
            True, klt, weak, klt_consistent, weak_consistent, tuple(failures), klt_any, weak_any
        )
