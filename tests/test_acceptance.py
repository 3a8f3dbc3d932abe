"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6-8 are
statistical (Monte Carlo at fixed seeds); everything else is exact.
"""

import math
import time

import numpy as np
import pytest

from starqec.circuits import (
    CATEGORY_OF,
    NoiseModel,
    build_ec_circuit,
    category_value_count,
    fault_stream,
)
from starqec.codes import distance_upto, verify_logical_basis
from starqec.engine import count_cnot_pairs
from starqec.faulttol import find_fault_tolerant_schedule, verify_unique_syndromes
from starqec.gf2 import kernel_basis, rank
from starqec.results import fit_quadratic, m_copy_failure
from starqec.scheduling import verify_properness

from oracles import (
    from_rows,
    naive_kernel,
    naive_rank,
    propagate,
    sample_faults,
    ssd_triangle_logicals,
)

SEED = 2026
GRID = [3e-4, 1e-3, 3e-3]
TRIALS_PER_POINT = 1_000_000
LIFETIME_TRAJECTORIES = 10_000
LIFETIME_P = 1e-3


def report(num, name, ok, detail):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def exrec_points(ssd_sim, s17_sim):
    out = {}
    for name, sim in (("ssd", ssd_sim), ("surface17", s17_sim)):
        out[name] = sim.estimate_pl(GRID, TRIALS_PER_POINT, seed=SEED, threads=2)
    return out


@pytest.fixture(scope="module")
def fits(exrec_points):
    return {name: fit_quadratic(pts) for name, pts in exrec_points.items()}


def test_criterion_1_code_parameters(ssd_code):
    t0 = time.time()
    ok = (
        ssd_code.n == 30
        and ssd_code.k == 8
        and len(ssd_code.hx.rows) == 12
        and len(ssd_code.hz.rows) == 12
        and set(ssd_code.x_check_weights()) == {5}
        and set(ssd_code.z_check_weights()) == {5}
        and rank(ssd_code.hx) == 11
        and rank(ssd_code.hz) == 11
        and distance_upto(ssd_code, 3) == (3, 3)
    )
    dt = time.time() - t0
    report(
        1,
        "code parameters",
        ok and dt < 1.0,
        f"[[30,8,3]], 12+12 weight-5 checks, ranks 11/11, d=(3,3) in {dt:.2f}s",
    )


def test_criterion_2_logical_basis(ssd_code):
    t0 = time.time()
    basis = verify_logical_basis(ssd_code)
    tris = ssd_triangle_logicals(ssd_code, around_vertex=11)
    acc = 0
    for t in tris:
        acc ^= t.bits
    product_ok = acc == ssd_code.hz.rows[11]
    dt = time.time() - t0
    report(
        2,
        "logical basis",
        basis.all_ok and product_ok and dt < 1.0,
        f"8+8 operators commute/pair/independent; 5-triangle product = Z-check 11 in {dt:.2f}s",
    )


def test_criterion_3_scheduling(ssd_code):
    t0 = time.time()
    res = find_fault_tolerant_schedule(ssd_code)
    prop = verify_properness(ssd_code, res.schedule)
    uniq = verify_unique_syndromes(build_ec_circuit(ssd_code, res.schedule, rounds=1))
    dt = time.time() - t0
    ok = (
        res.colors_x == 5
        and res.colors_z == 5
        and res.method == {"X": "dsatur", "Z": "dsatur"}
        and res.schedule.steps == 10
        and res.schedule.total_timesteps == 12
        and prop.ok
        and uniq.ok
        and dt < 10.0
    )
    report(
        3,
        "scheduling",
        ok,
        f"DSATUR 5+5 colors, 10 CNOT steps, T=12, proper, unique syndromes in {dt:.1f}s",
    )


def test_criterion_4_fault_tolerance_verification(ssd_sim, s17_sim):
    t0 = time.time()
    details = []
    ok = True
    for name, sim in (("ssd", ssd_sim), ("surface17", s17_sim)):
        c1 = sim.verify_condition1()
        sweep = sim.verify_exrec_single_faults()
        ok = ok and c1.ok and sweep.ok
        details.append(
            f"{name}: condition1 {len(c1.violations)} violations "
            f"({c1.fault_cases} faults, {c1.correctability_cases} pairs), "
            f"exrec sweep {len(sweep.violations)} violations"
        )
    dt = time.time() - t0
    report(4, "fault-tolerance verification", ok and dt < 300.0, "; ".join(details) + f" in {dt:.0f}s")


def test_criterion_5_cnot_counting(ssd_sim, s17_sim):
    t0 = time.time()
    ssd_cnots = ssd_sim.circuit.cnot_count()
    s17_cnots = s17_sim.circuit.cnot_count()
    ssd_pairs = count_cnot_pairs(ssd_sim.circuit)
    s17_pairs = count_cnot_pairs(s17_sim.circuit)
    dt = time.time() - t0
    ok = (ssd_cnots, ssd_pairs, s17_cnots, s17_pairs) == (330, 54285, 96, 4560) and dt < 1.0
    report(
        5,
        "CNOT counting",
        ok,
        f"ssd {ssd_cnots} CNOTs/{ssd_pairs} pairs; surface17 {s17_cnots}/{s17_pairs}",
    )


def test_criterion_6_quadratic_coefficients(fits):
    c_s17 = fits["surface17"].c
    c_ssd = fits["ssd"].c
    ok = 2000 <= c_s17 <= 4200 and 39000 <= c_ssd <= 74000
    report(
        6,
        "quadratic coefficients",
        ok,
        f"c_s17={c_s17:.0f} in [2000,4200]; c_ssd={c_ssd:.0f} in [39000,74000] "
        f"({TRIALS_PER_POINT} trials/point at {GRID})",
    )


def test_criterion_7_pseudo_threshold_ratio(fits):
    ratio = fits["surface17"].pstar / fits["ssd"].pstar
    ok = 13.0 <= ratio <= 25.0
    report(
        7,
        "pseudo-threshold ratio",
        ok,
        f"pstar_s17={fits['surface17'].pstar:.3e}, pstar_ssd={fits['ssd'].pstar:.3e}, "
        f"ratio={ratio:.2f} in [13,25]",
    )


def test_criterion_8_lifetime_ordering(ssd_sim, s17_sim, exrec_points):
    noise = NoiseModel(LIFETIME_P)
    t0 = time.time()
    details = []
    ok = True
    for name, sim, max_rounds in (
        ("ssd", ssd_sim, 6000),
        ("surface17", s17_sim, 60000),
    ):
        pl_exrec = next(pt.p_l for pt in exrec_points[name] if pt.p == LIFETIME_P)
        single = sim.estimate_pl([LIFETIME_P], TRIALS_PER_POINT, seed=SEED + 1,
                                 mode="single", threads=2)[0]
        summary = sim.estimate_lifetime(noise, LIFETIME_TRAJECTORIES, seed=SEED + 2,
                                        max_rounds=max_rounds)
        lower = 0.8 * 3.0 / pl_exrec
        upper = 3.0 / single.p_l
        this_ok = lower <= summary.mean_rounds <= upper and summary.censored == 0
        ok = ok and this_ok
        details.append(
            f"{name}: mean={summary.mean_rounds:.0f} rounds in "
            f"[{lower:.0f}, {upper:.0f}] (censored {summary.censored})"
        )
    dt = time.time() - t0
    report(8, "lifetime ordering", ok, "; ".join(details) + f" in {dt:.0f}s")


def test_criterion_9_eight_copy_comparison(fits):
    c_s17 = fits["surface17"].c
    c_ssd = fits["ssd"].c
    ok = True
    values = []
    for p in GRID:
        copies = m_copy_failure(min(c_s17 * p * p, 1.0), 8)
        single = min(c_ssd * p * p, 1.0)
        values.append(f"p={p:g}: {copies:.3g} < {single:.3g}")
        ok = ok and copies < single
    report(9, "eight-copy comparison", ok, "; ".join(values))


def test_criterion_10_property_suites(ssd_sim):
    t0 = time.time()
    # GF(2) rank/kernel against the naive unpacked oracle
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        dense = rng.integers(0, 2, size=(20, 20))
        m = from_rows(dense.tolist())
        assert rank(m) == naive_rank(dense)
        basis = kernel_basis(m)
        oracle = naive_kernel(dense)
        assert len(basis) == len(oracle)
        for v, ov in zip(basis, oracle):
            assert list(v) == ov.tolist()
    gf2_time = time.time() - t0

    # frame-propagation linearity on 1000 random fault pairs
    t1 = time.time()
    circuit = ssd_sim.unit_circuit
    n_locs = len(circuit.locations)
    checked = 0
    while checked < 1000:
        i, j = rng.integers(0, n_locs, size=2)
        if i == j:
            continue
        vi = int(rng.integers(0, category_value_count(CATEGORY_OF[circuit.locations[int(i)].kind])))
        vj = int(rng.integers(0, category_value_count(CATEGORY_OF[circuit.locations[int(j)].kind])))
        both = propagate(circuit, [(int(i), vi), (int(j), vj)])
        a = propagate(circuit, [(int(i), vi)])
        b = propagate(circuit, [(int(j), vj)])
        assert both.frame.x == a.frame.x ^ b.frame.x
        assert both.frame.z == a.frame.z ^ b.frame.z
        assert both.x_syndromes[0] == a.x_syndromes[0] ^ b.x_syndromes[0]
        assert both.z_syndromes[0] == a.z_syndromes[0] ^ b.z_syndromes[0]
        checked += 1
    linearity_time = time.time() - t1

    # noise-distribution frequencies at p = 1e-2, >= 1e6 samples per kind,
    # every category within 5 sigma
    t2 = time.time()
    noise = NoiseModel(1e-2)
    big = ssd_sim.circuit
    counts = {
        "cnot": np.zeros(15, dtype=np.int64),
        "idle": np.zeros(3, dtype=np.int64),
        "prep": np.zeros(1, dtype=np.int64),
        "meas": np.zeros(1, dtype=np.int64),
    }
    per_kind = {c: len(big.locations_of_category(c)) for c in counts}
    draws = math.ceil(1_000_000 / min(per_kind.values()))
    for d in range(draws):
        for loc_idx, value in sample_faults(big, noise, fault_stream(SEED, 77, d)):
            counts[CATEGORY_OF[big.locations[loc_idx].kind]][value] += 1
    samples = {c: draws * n for c, n in per_kind.items()}
    assert min(samples.values()) >= 1_000_000
    sigma_ok = True
    for cat, arr in counts.items():
        n = samples[cat]
        n_vals = category_value_count(cat)
        q = noise.category_prob(cat) / n_vals
        for v in range(n_vals):
            expect = n * q
            bound = 5 * math.sqrt(n * q * (1 - q))
            if abs(arr[v] - expect) > bound:
                sigma_ok = False
    chi_time = time.time() - t2

    total = time.time() - t0
    report(
        10,
        "property suites",
        sigma_ok and total < 60.0,
        f"500 gf2 oracles ({gf2_time:.1f}s), 1000 linearity pairs ({linearity_time:.1f}s), "
        f"5-sigma noise frequencies over >=1e6 samples/kind ({chi_time:.1f}s)",
    )
