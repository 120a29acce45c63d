"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package at its stated
tolerance and prints a single pass/fail line, so every guarantee can be
audited from the test log (or by running this file directly).  Everything
is seeded; total runtime stays well under a minute.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

from vncat import (
    Arrow,
    CausalNet,
    Context,
    DoubleCone,
    Event,
    LatticeBounds,
    Obj,
    ObjectUniverse,
    UnitaryRep,
    central_arrow,
    central_factor,
    check_causality,
    classical_commutant,
    commutant,
    covariance_residual,
    CrossedContext,
    cstar_residuals,
    cyclic_group,
    dagger,
    double_commutant,
    endo_algebra,
    generated_star_algebra,
    interchange_residuals,
    lambda_embed,
    pair_swap_family,
    pi_embed,
    run_scenario,
    span_basis,
    standard_universe,
    subspace_equal,
    symmetric_group,
    compose,
)
from helpers import conjugated_regular_rep, random_arrow, random_closed_set, random_matrix

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(n: int, label: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} ({label}) failed{tail}"


def projection_residual(basis_mats, m) -> float:
    """Distance from m to the span, relative to max(1, ||m||)."""
    v = m.reshape(-1, order="F")
    r = v.copy()
    for b in span_basis(list(basis_mats)):
        bv = b.reshape(-1, order="F")
        r = r - bv * (bv.conj() @ r)
    return float(np.linalg.norm(r) / max(1.0, np.linalg.norm(v)))


def mutual_residual(a_mats, b_mats) -> float:
    worst = 0.0
    for m in b_mats:
        worst = max(worst, projection_residual(a_mats, m))
    for m in a_mats:
        worst = max(worst, projection_residual(b_mats, m))
    return worst


@functools.lru_cache(maxsize=1)
def centre_runs():
    """Commutants of the full pair-swap family at hdim 2 and 3."""
    out = []
    for h in (2, 3):
        ctx = Context(h)
        uni = standard_universe(ctx)
        family = pair_swap_family(ctx)
        out.append((ctx, uni, family, commutant(family, uni)))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def commutant_chains():
    """20 seeded dagger-closed generator sets with their first commutants.

    The second and third commutants are recomputed lazily by the tests that
    need them; the first commutant is what several criteria share.
    """
    ctx = Context(2)
    uni = standard_universe(ctx)
    runs = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        gens = tuple(random_closed_set(rng, uni, 1 + (i % 2)))
        runs.append((gens, commutant(gens, uni)))
    return uni, tuple(runs)


def test_criterion_01_centre_matches_plain_matrices():
    worst_defect = 0.0
    ok = True
    for ctx, uni, family, cat in centre_runs():
        for d, c, n in cat.dims():
            if n != d.dim * c.dim:
                ok = False
        for f in cat.all_arrows():
            if central_factor(f, 1e-8) is None:
                ok = False
            else:
                fid = f.mat - np.kron(central_factor(f, 1e-8), np.eye(ctx.hdim))
                worst_defect = max(worst_defect, np.linalg.norm(fid))
    # with no hidden direction at all, nothing constrains anything
    ctx1 = Context(1)
    uni1 = standard_universe(ctx1)
    rng = np.random.default_rng(77)
    full = commutant(tuple(random_closed_set(rng, uni1, 2)), uni1)
    for d, c, n in full.dims():
        if n != d.dim * c.dim:
            ok = False
    report(1, "centre reduces to plain matrices", ok, f"defect {worst_defect:.2e}")


def test_criterion_02_one_object_case_is_classical():
    worst = 0.0
    ok = True
    unit = Obj("I", 1)
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        h = 1 + i % 4
        ctx = Context(h)
        uni = ObjectUniverse((unit,), ctx)
        raws = [random_matrix(rng, h, h) for _ in range(1 + i % 2)]
        gens = []
        for m in raws:
            gens.append(Arrow(unit, unit, ctx, m))
            gens.append(dagger(gens[-1]))
        engine = endo_algebra(double_commutant(gens, uni))
        classical = classical_commutant(
            classical_commutant(raws + [m.conj().T for m in raws])
        )
        star = generated_star_algebra(raws)
        r1 = mutual_residual(engine, classical)
        r2 = mutual_residual(engine, star)
        worst = max(worst, r1, r2)
        if r1 > 1e-8 or r2 > 1e-8:
            ok = False
    report(2, "one-object case is a matrix algebra", ok, f"residual {worst:.2e}")


def test_criterion_03_double_commutant_laws():
    uni, runs = commutant_chains()
    worst = 0.0
    ok = True
    for gens, first in runs:
        second = commutant(first.all_arrows(), uni)
        third = commutant(second.all_arrows(), uni)
        for g in gens:
            r = projection_residual(second.homs[(g.dom, g.cod)].mats, g.mat)
            worst = max(worst, r)
            if r > 1e-8:
                ok = False
        for pair in uni.pairs():
            if not subspace_equal(first.homs[pair], third.homs[pair], 1e-8):
                ok = False
    report(3, "double commutant laws", ok, f"residual {worst:.2e}")


def test_criterion_04_commutant_bases_interchange():
    worst = 0.0
    for ctx, uni, family, cat in centre_runs():
        for f in cat.all_arrows():
            for g in family:
                worst = max(worst, interchange_residuals(f, g))
    _, runs = commutant_chains()
    for gens, first in runs:
        for f in first.all_arrows():
            for g in gens:
                scale = max(1.0, f.norm() * g.norm())
                worst = max(worst, interchange_residuals(f, g) / scale)
    report(4, "commutant bases interchange with generators", worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_05_cstar_identities():
    worst = 0.0
    count = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        h = 1 + i % 3
        ctx = Context(h)
        a = Obj("A", 1 + i % 3)
        b = Obj("B", 1 + (i // 3) % 3)
        c = Obj("C", 2)
        whisk = Obj("W", 1 + (i // 9) % 3)
        t = random_arrow(rng, a, b, ctx)
        s = random_arrow(rng, b, c, ctx)
        res = cstar_residuals(s, t, whisk)
        worst = max(worst, *res.values())
        count += 1
    ok = worst <= 1e-10 and count == 100
    report(5, "operator norm identities", ok, f"worst {worst:.2e}")


def test_criterion_06_covariance_law():
    worst = 0.0
    ok = True
    groups = (cyclic_group(2), cyclic_group(3), symmetric_group(3))
    for gi, grp in enumerate(groups):
        rng = np.random.default_rng(6000 + gi)
        rep = conjugated_regular_rep(grp, rng)
        ctx = Context(grp.order)
        cc = CrossedContext(ctx, grp)
        a = Obj("A", 2)
        unit = Obj("I", 1)
        for i in range(20):
            f = random_arrow(rng, unit if i % 2 else a, a, ctx)
            f = (1.0 / f.norm()) * f
            g = int(rng.integers(grp.order))
            r = covariance_residual(g, f, rep, cc)
            worst = max(worst, r)
            if r > 1e-10:
                ok = False
    # negative control: a unitary family that is not a homomorphism
    z2 = cyclic_group(2)
    rng = np.random.default_rng(7)
    f0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    broken = UnitaryRep(z2, (np.eye(2, dtype=complex), np.diag([1.0, 1j])), validate=False)
    control = covariance_residual(
        1, Arrow(Obj("I", 1), Obj("I", 1), Context(2), f0), broken, CrossedContext(Context(2), z2)
    )
    if control <= 1e-3:
        ok = False
    report(6, "covariance law and negative control", ok,
           f"worst {worst:.2e}, control {control:.2e}")


def test_criterion_07_crossed_product_oracle():
    doc_path = GOLDEN_DIR / "diagonal_flip_crossed.json"
    doc = json.loads(doc_path.read_text())
    unit = Obj("I", 1)
    ctx = Context(doc["hdim"])
    z2 = cyclic_group(2)
    rep = UnitaryRep(z2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    cc = CrossedContext(ctx, z2)
    f = Arrow(unit, unit, ctx, np.diag([1.0, -1.0]))
    from vncat import crossed_product

    crossed = crossed_product([f], rep, ObjectUniverse((unit,), ctx))
    engine_dim = crossed.homs[(unit, unit)].dim
    # independent route: plain matrices, no category machinery
    d4 = pi_embed(f, rep, cc).mat
    p4 = lambda_embed(1, cc).mat
    brute = classical_commutant(classical_commutant([d4, p4]))
    joint = len(span_basis(list(crossed.homs[(unit, unit)].mats) + brute))
    ok = engine_dim == 4 and len(brute) == 4 and joint == 4
    report(7, "crossed product oracle", ok, f"dim {engine_dim}")


def test_criterion_08_embedding_laws():
    ok = True
    groups = (cyclic_group(2), cyclic_group(3), symmetric_group(3))
    for grp in groups:
        cc = CrossedContext(Context(1), grp)
        for g in range(grp.order):
            for h in range(grp.order):
                lhs = compose(lambda_embed(g, cc), lambda_embed(h, cc)).mat
                if not np.array_equal(lhs, lambda_embed(grp.mul(g, h), cc).mat):
                    ok = False
            if not np.array_equal(
                dagger(lambda_embed(g, cc)).mat,
                lambda_embed(grp.inverse(g), cc).mat,
            ):
                ok = False
    worst = 0.0
    rng = np.random.default_rng(8000)
    grp = symmetric_group(3)
    rep = conjugated_regular_rep(grp, rng)
    ctx = Context(grp.order)
    cc = CrossedContext(ctx, grp)
    a, b, c = Obj("A", 2), Obj("B", 1), Obj("C", 2)
    for _ in range(50):
        f = random_arrow(rng, a, b, ctx)
        g = random_arrow(rng, b, c, ctx)
        f = (1.0 / f.norm()) * f
        g = (1.0 / g.norm()) * g
        lhs = pi_embed(compose(g, f), rep, cc)
        rhs = compose(pi_embed(g, rep, cc), pi_embed(f, rep, cc))
        worst = max(worst, (lhs - rhs).norm())
        worst = max(
            worst, (pi_embed(dagger(f), rep, cc) - dagger(pi_embed(f, rep, cc))).norm()
        )
    if worst > 1e-10:
        ok = False
    report(8, "group and twist embeddings respect structure", ok, f"worst {worst:.2e}")


def test_criterion_09_causality_verdicts():
    ctx = Context(2)
    unit = Obj("I", 1)
    bounds = LatticeBounds(0, 4, -4, 4)
    left = DoubleCone(Event(0, -3), Event(1, -3))
    right = DoubleCone(Event(0, 3), Event(1, 3))
    rng = np.random.default_rng(9000)
    c1 = central_arrow(rng.standard_normal((1, 1)), unit, unit, ctx)
    c2 = central_arrow(rng.standard_normal((1, 1)), unit, unit, ctx)
    t = pair_swap_family(ctx)[0]

    calm = CausalNet(bounds, ctx, {left: [c1], right: [c2]})
    verdicts = [check_causality(calm, 1e-8).passed]

    noisy = CausalNet(bounds, ctx, {left: [c1, t], right: [c2, t]})
    verdicts.append(not check_causality(noisy, 1e-8).passed)

    outer = DoubleCone(Event(0, 0), Event(4, 0))
    inner = DoubleCone(Event(1, 0), Event(2, 0))
    timelike = CausalNet(bounds, ctx, {outer: [c1, t], inner: [c2, t]})
    verdicts.append(check_causality(timelike, 1e-8).passed)

    ok = all(verdicts)
    report(9, "spacelike interchange verdicts", ok, f"verdicts {verdicts}")


def test_criterion_10_reports_are_reproducible(tmp_path):
    ok = True
    for golden in sorted(GOLDEN_DIR.glob("*.json")):
        blobs = []
        for run, threads in enumerate((1, 1, 2)):
            out = tmp_path / f"{golden.stem}.{run}.json"
            code = run_scenario(str(golden), str(out), threads=threads)
            if code != 0:
                ok = False
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            ok = False
    report(10, "golden reports reproduce byte for byte", ok)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        test_criterion_01_centre_matches_plain_matrices()
        test_criterion_02_one_object_case_is_classical()
        test_criterion_03_double_commutant_laws()
        test_criterion_04_commutant_bases_interchange()
        test_criterion_05_cstar_identities()
        test_criterion_06_covariance_law()
        test_criterion_07_crossed_product_oracle()
        test_criterion_08_embedding_laws()
        test_criterion_09_causality_verdicts()
        test_criterion_10_reports_are_reproducible(Path(td))
    print("all acceptance criteria passed")
