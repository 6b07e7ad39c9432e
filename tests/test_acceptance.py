"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bump_values, family_values, random_cpoly, stack, steep_family
from coronaglue import cli, cover_pou, glue, hnorm, serialize, smoothness
from coronaglue.bezout_point import gcd_chain_bezout
from coronaglue.config import load_config
from coronaglue.errors import CoronaViolation
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
PASSING_CONFIGS = (
    "worked_family.json",
    "constant_family.json",
    "two_param_family.json",
    "steep_family.json",
)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _polar_grid(n):
    radii = np.linspace(0.0, 1.0, n)
    angles = np.exp(2j * np.pi * np.arange(n) / n)
    return (radii[:, None] * angles[None, :]).ravel()


@pytest.fixture(scope="module")
def worked_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("worked")
    sol = tmp / "solution.json"
    rep = tmp / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["solve", "--config", str(CONFIGS / "worked_family.json"),
                     "--out", str(sol), "--report", str(rep)])
    vrep = tmp / "verify.json"
    vcode = cli.main(["verify", "--solution", str(sol),
                      "--z-samples", "20", "--s-samples", "20",
                      "--report", str(vrep)])
    elapsed = time.perf_counter() - t0
    assert code == 0 and vcode == 0
    _, glued = serialize.load_solution(sol)
    return {"solution_path": sol, "glued": glued, "elapsed": elapsed,
            "verify_report": json.loads(vrep.read_text())}


def test_criterion_01_bezout_identity(worked_run):
    glued = worked_run["glued"]
    family = glued.family
    z = _polar_grid(20)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 20):
        g = glue.g_eval(glued, z, [s])
        f = family_values(family, z, [s])[0]
        worst = max(worst, float(np.abs((g * f).sum(axis=0) - 1.0).max()))
    ok = worst <= 1e-12 and worked_run["elapsed"] <= 30.0
    _report(1, ok, f"max |g^T f - 1| = {worst:.3e} <= 1e-12 on the "
                   f"20x20x20 grid; solve+verify took {worked_run['elapsed']:.1f}s")


def test_criterion_02_norm_bound(worked_run):
    glued = worked_run["glued"]
    z = _polar_grid(20)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 20):
        g = glue.g_eval(glued, z, [s])
        worst = max(worst, float(np.sqrt((np.abs(g) ** 2).sum(axis=0)).max()))
    bound = 2.0 * glued.c0 * (1.0 + 1e-9)
    ok = worst <= bound
    _report(2, ok, f"sup ||g|| = {worst:.6g} <= 2 c0 (1+1e-9) = {bound:.6g}")


def test_criterion_03_perturbation_gate(tmp_path):
    highs = {}
    for name in PASSING_CONFIGS:
        cfg = load_config(CONFIGS / name)
        glued, _ = glue.solve(cfg.to_family(), cfg.solver)
        highs[name] = glued.residual_cert.hi
    all_pass = all(hi <= 0.5 for hi in highs.values())

    rep = tmp_path / "rep.json"
    code = cli.main(["verify", "--solution",
                     str(CONFIGS / "corrupted_solution.json"),
                     "--report", str(rep)])
    report = json.loads(rep.read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    witnessed = any("witness" in c for c in failing)
    ok = all_pass and code == 1 and report["verdict"] == "fail" and witnessed
    detail = ", ".join(f"{Path(n).stem}: hi={h:.3g}" for n, h in highs.items())
    _report(3, ok, f"residual gates: {detail}; corrupted solution fails "
                   f"with witness: {witnessed}")


def test_criterion_04_partition_of_unity():
    rng = np.random.default_rng(2024)
    pous = [
        ([(0.0, 1.0)], cover_pou.build_cover([(0.0, 1.0)], 0.22)),
        ([(0.0, 1.0), (0.0, 1.0)], cover_pou.build_cover([(0.0, 1.0), (0.0, 1.0)], 0.45)),
    ]
    worst_sum = worst_ref = 0.0
    support_exact = True
    for box, pou in pous:
        centers = np.asarray(pou.centers)
        for _ in range(10_000 // len(pous)):
            s = np.array([rng.uniform(a, b) for a, b in box])
            w = pou.weights(s[None])[0]
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            dist = np.sqrt(((s - centers) ** 2).sum(-1))
            if np.any((dist >= pou.radius) & (w != 0.0)):
                support_exact = False
            # the order-0 jets against the mollifier formula
            b_vals = bump_values(pou, s)
            worst_ref = max(worst_ref, float(np.abs(w - b_vals / b_vals.sum()).max()))
    worst_dsum = 0.0
    for box, pou in pous:
        dim = len(box)
        orders = [(1,), (2,)] if dim == 1 else \
            [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        for _ in range(300):
            s = np.array([rng.uniform(a, b) for a, b in box])
            for d in pou.derivs(s[None], orders):
                worst_dsum = max(worst_dsum, abs(float(d.sum())))
    ok = worst_sum <= 1e-12 and support_exact and worst_ref <= 1e-14 and worst_dsum <= 1e-9
    _report(4, ok, f"max |sum eta - 1| = {worst_sum:.2e} over 1e4 points; "
                   f"support exact: {support_exact}; max |eta - formula| = "
                   f"{worst_ref:.2e}; max |sum d^a eta| = "
                   f"{worst_dsum:.2e} for |a| in {{1,2}}")


def test_criterion_05_smoothness(steep_solution):
    glued = steep_solution
    rng = np.random.default_rng(99)
    worst = {1: 0.0, 2: 0.0}
    for _ in range(50):
        s = [float(rng.uniform(0.05, 0.95))]
        z = 0.6 * math.sqrt(rng.uniform(0, 1)) * np.exp(2j * np.pi * rng.uniform(0, 1))
        worst[1] = max(worst[1], smoothness.fd_check(glued, complex(z), s, (1,), 1e-4))
        worst[2] = max(worst[2], smoothness.fd_check(glued, complex(z), s, (2,), 1e-3))
    coarse, fine = (smoothness.cnorm_report(glued, 1, axis_samples=n).per_order
                    for n in (33, 65))
    stable = [abs(a["ratio"] - b["ratio"]) <= 0.10 * max(a["ratio"], b["ratio"])
              for a, b in zip(coarse, fine)]
    ok = worst[1] <= 1e-6 and worst[2] <= 1e-4 and all(stable)
    _report(5, ok, f"fd deviations: order1 {worst[1]:.2e} <= 1e-6, "
                   f"order2 {worst[2]:.2e} <= 1e-4; ratio stability under "
                   f"grid doubling: {stable}")


def test_criterion_06_exact_family_cross_check(worked_run):
    glued = worked_run["glued"]
    family = glued.family
    worst_identity = 0.0
    worst_deriv = 0.0
    for s in (0.0, 0.5, 1.0):
        g = glue.g_eval(glued, 0.0, [s])
        f2 = family_values(family, 0.0, [s])[0][1]
        worst_identity = max(worst_identity, abs(g[1] * f2 - 1.0))
        d1 = smoothness.g_partial(glued, 0.0, [s], (1,))[1]
        exact = -3.0 / (2.0 + s) ** 2
        worst_deriv = max(worst_deriv, abs(d1 - exact))
    ok = worst_identity <= 1e-12 and worst_deriv <= 1e-8
    _report(6, ok, f"forced identity off by {worst_identity:.2e}; "
                   f"ds g_2(0,s) off calculus value by {worst_deriv:.2e} <= 1e-8")


def test_criterion_07_certificate_soundness():
    rng = np.random.default_rng(7)
    brute = hnorm.boundary_points(2 ** 20)
    sup_ok = True
    worst_gap = 0.0
    for _ in range(50):
        p = random_cpoly(rng, 10)
        cert = hnorm.sup_disc(p, 512)
        measured = float(np.abs(p.eval(brute)).max())
        sup_ok &= cert.lo - 1e-12 <= measured <= cert.hi + 1e-12
        worst_gap = max(worst_gap, cert.hi - cert.lo)
    delta_ok = True
    for _ in range(50):
        p = random_cpoly(rng, 10)
        comp = ZSPoly([[SPoly([float(c.real), float(c.imag)]) for c in p.coeffs]])
        family = ParamFamily(stack(comp, ZSPoly([[SPoly([1.0, 0.5])]])), [(0.0, 1.0)])
        cert = hnorm.delta_lower(family, 8, 16, 5)
        fine = hnorm.delta_lower(family, 71, 151, 41)
        delta_ok &= fine.hi >= cert.lo - 1e-12
    ok = sup_ok and delta_ok
    _report(7, ok, f"50 boundary brute-force suprema inside [lo, hi] "
                   f"(worst width {worst_gap:.2e}): {sup_ok}; brute-force "
                   f"minima above delta lo: {delta_ok}")


def test_criterion_08_bezout_suite():
    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    while checked < 200:
        p = random_cpoly(rng, 8)
        q = random_cpoly(rng, 8)
        if p.is_zero or q.is_zero:
            continue
        a, b = gcd_chain_bezout([p, q]).g
        checked += 1
        worst = max(worst, np.abs((a * p + b * q + CPoly([-1.0])).coeffs).sum())
    a, b = gcd_chain_bezout([CPoly([0, 1]), CPoly([1, -0.5])]).g
    exact = all(len(g.coeffs) == 1 and abs(g.coeffs[0] - c) <= 4 * np.spacing(c)
                for g, c in ((a, 0.5), (b, 1.0)))
    ok = worst <= 1e-10 and exact
    _report(8, ok, f"200 coprime pairs: worst identity residual {worst:.2e} "
                   f"<= 1e-10; (z, 1 - z/2) cofactors within 4 ulp: {exact}")


def test_criterion_09_negative_controls(capsys):
    code = cli.main(["check", "--config",
                     str(CONFIGS / "negative_common_zero.json")])
    config = load_config(CONFIGS / "negative_common_zero.json")
    solver = config.solver
    cert = hnorm.delta_lower(config.to_family(), solver.radial_samples,
                             solver.angular_samples, solver.axis_samples)
    near_zero = cert.hi <= 1e-2 and cert.lo <= 0.0
    violated = False
    try:
        gcd_chain_bezout([CPoly([0, 1]), CPoly([0, 0, 1])])
    except CoronaViolation:
        violated = True
    ok = code == 1 and near_zero and violated
    with capsys.disabled():
        _report(9, ok, f"(z, z - s/4) check exits 1 with certificate "
                       f"hi = {cert.hi:.2e}; (z, z^2) raises a "
                       f"corona-violation error: {violated}")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        sol = tmp_path / f"sol_{tag}.json"
        csv = tmp_path / f"grid_{tag}.csv"
        assert cli.main(["solve", "--config",
                         str(CONFIGS / "steep_family.json"),
                         "--out", str(sol)]) == 0
        assert cli.main(["eval-grid", "--solution", str(sol), "--out",
                         str(csv), "--z-samples", "6", "--s-samples", "6"]) == 0
        outs.append((sol.read_bytes(), csv.read_bytes()))
    ok = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    _report(10, ok, "two identical runs produced byte-identical solution "
                    "files and CSV exports")
