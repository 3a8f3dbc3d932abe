"""Naive unpacked reference implementations used as independent oracles."""

import numpy as np


def naive_rank(dense: np.ndarray) -> int:
    a = (np.array(dense, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


def naive_kernel(dense: np.ndarray) -> list[np.ndarray]:
    a = (np.array(dense, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        for i, pc in enumerate(pivots):
            if a[i, free]:
                v[pc] = 1
        basis.append(v)
    return basis


# --- scalar EC-unit oracles: one case or pair at a time through Simulator._unit ---


def _distinct_fault_sigs(sim):
    seen = {}
    for _loc, _val, sig in sim.signatures.iter_all():
        key = (sig.x_res, sig.z_res, sig.x_syn, sig.z_syn)
        if key not in seen and not sig.is_trivial:
            seen[key] = sig
    return list(seen.values())


def scalar_condition1(sim):
    """``Simulator.verify_condition1`` one case at a time."""
    from starqec.engine import Condition1Report
    from starqec.faulttol import enumerate_single_fault_errors, syndrome_bits

    violations = []
    n = sim.code.n
    input_cases = 0
    for q in range(n):
        for kind in ("X", "Z"):
            xin = (1 << q) if kind == "X" else 0
            zin = (1 << q) if kind == "Z" else 0
            input_cases += 1
            # TrialResults compare by afflicted logicals (rounds are None)
            if sim._decode(xin, zin) != sim._decode(*sim._unit((), xin, zin)):
                violations.append(f"input {kind} error on qubit {q} changes logical state")
    distinct = _distinct_fault_sigs(sim)
    fault_cases = 0
    for sig in distinct:
        xo, zo = sim._unit((sig,), 0, 0)
        fault_cases += 1
        res = sim._decode(xo, zo)
        if res.failed:
            violations.append(
                f"single fault with residual (x={sig.x_res:#x}, z={sig.z_res:#x}) "
                f"causes logical fault {res.afflicted}"
            )
    full_hx = sim.code.hx.rows
    full_hz = sim.code.hz.rows
    inputs = set()
    for kind in ("X", "Z"):
        for fr in enumerate_single_fault_errors(sim.code, sim.schedule, kind, sim.unit_circuit):
            if fr.residual and fr.weight <= 2:
                inputs.add((fr.residual, 0) if kind == "X" else (0, fr.residual))
    correctability_cases = 0
    for xin, zin in sorted(inputs):
        for sig in distinct:
            xo, zo = sim._unit((sig,), xin, zin)
            correctability_cases += 1
            cx = xo ^ sim._x_corr[syndrome_bits(sim._det_x, xo)]
            cz = zo ^ sim._z_corr[syndrome_bits(sim._det_z, zo)]
            if syndrome_bits(full_hz, cx) or syndrome_bits(full_hx, cz):
                violations.append(
                    f"output for input (x={xin:#x}, z={zin:#x}) not returned to codespace"
                )
    return Condition1Report(input_cases, fault_cases, correctability_cases, violations)


def scalar_exrec_sweep(sim):
    """``Simulator.verify_exrec_single_faults`` one case at a time."""
    from starqec.engine import ExRecSweepReport

    violations = []
    cases = 0
    for sig in _distinct_fault_sigs(sim):
        for unit_index in (0, 1):
            if unit_index == 0:
                x1, z1 = sim._unit((sig,), 0, 0)
                x2, z2 = sim._unit((), x1, z1)
            else:
                x2, z2 = sim._unit((sig,), 0, 0)
            cases += 1
            res = sim._decode(x2, z2)
            if res.failed:
                violations.append(f"single fault in unit {unit_index + 1} fails: {res.afflicted}")
    return ExRecSweepReport(cases, violations)


def _both_in_unit1(sim, a, b):
    return sim._decode(*sim._unit((), *sim._unit((a, b), 0, 0))).failed


def _both_in_unit2(sim, a, b):
    return sim._decode(*sim._unit((a, b), 0, 0)).failed


def _one_in_each(sim, a, b):
    return sim._decode(*sim._unit((b,), *sim._unit((a,), 0, 0))).failed


def scalar_malignant(sim, a, b):
    """The exact-c pair rules for signatures a and b: does the exRec fail
    with both in unit 1, with both in unit 2, and with a in unit 1 and b in
    unit 2?"""
    return _both_in_unit1(sim, a, b), _both_in_unit2(sim, a, b), _one_in_each(sim, a, b)


def scalar_exact_c(sim):
    """``exact_quadratic_coefficient`` one signature pair at a time."""
    from starqec.circuits import NoiseModel, category_value_count

    cats = ("cnot", "prep", "meas", "idle")
    per_val = {cat: NoiseModel(1.0).category_prob(cat) / category_value_count(cat) for cat in cats}
    groups, sig_list, w_list = {}, [], []
    for cat in cats:
        for sigs in sim.signatures.by_category[cat][1]:
            for sig in sigs:
                idx = groups.setdefault(sig, len(sig_list))
                if idx == len(sig_list):
                    sig_list.append(sig)
                    w_list.append(per_val[cat])
                else:
                    w_list[idx] += per_val[cat]

    n = len(sig_list)
    total = 0.0
    for mal in (_both_in_unit1, _both_in_unit2):
        s_all = 0.0
        for i in range(n):
            for j in range(i, n):
                if mal(sim, sig_list[i], sig_list[j]):
                    w = w_list[i] * w_list[j]
                    s_all += w if i == j else 2 * w
        # impossible pairs: two atoms at the same location
        s_same = 0.0
        for cat in cats:
            w = per_val[cat] * per_val[cat]
            for sigs in sim.signatures.by_category[cat][1]:
                for a_i, a in enumerate(sigs):
                    for b in sigs[a_i:]:
                        if mal(sim, a, b):
                            s_same += w if b is a else 2 * w
        total += 0.5 * (s_all - s_same)
    for i in range(n):
        for j in range(n):
            if _one_in_each(sim, sig_list[i], sig_list[j]):
                total += w_list[i] * w_list[j]
    return total
