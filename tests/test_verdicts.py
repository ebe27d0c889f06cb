"""The classical and the quantum principle select the same coefficient tables.

Classical: the face equation of a table is a symmetric quad equation and the
Lagrangian closes on its solutions (`classify_general_quad_lagrangian`).
Quantum: the table is a critical point of the move-a matching conditions and
the two move-a kernels agree (`uniqueness_scan_2form`).  A delta-rejected
table is not critical.
"""
import itertools
from dataclasses import replace

from mdclab import lattice, qsurface

GAUGES = ((0.0, 0.0, 0.0), (0.3, -0.7, 0.2))
CONSTANT_C = (1.0, 1.5, -1.0, 0.7)
PAIRS = {
    "a": ((1, 2), (2, 3), (3, 1)),
    "d": ((1, 2), (2, 3), (3, 1)),
    "b": tuple(itertools.permutations((1, 2, 3), 2)),
    "c": tuple(itertools.permutations((1, 2, 3), 2)),
}


def coefficient_tables():
    """Canonical (3, 2, 1) tables at each gauge and constant c, and every
    one-coefficient perturbation of them by +-1e-2 (a and d stay antisymmetric)."""
    for gauge in GAUGES:
        canonical = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=gauge)
        for c in CONSTANT_C:
            base = replace(canonical, c=dict.fromkeys(canonical.c, c))
            yield (gauge, c), base
            for table, pairs in PAIRS.items():
                for pair in pairs:
                    for eps in (1e-2, -1e-2):
                        yield (gauge, c, table, pair, eps), base.perturbed(table, pair, eps)


def test_classical_and_quantum_verdicts_agree():
    disagreements = []
    admissible = []
    count = 0
    for key, coeffs in coefficient_tables():
        count += 1
        classical = lattice.classify_general_quad_lagrangian(coeffs)
        closes = classical["symmetric_quad"] and classical["closure_ok"]
        critical = qsurface.uniqueness_scan_2form(coeffs)["critical"]
        if closes != critical:
            disagreements.append((key, classical, critical))
        if closes:
            admissible.append(key)
    assert count == 296
    assert disagreements == []
    # the unperturbed tables with c = 1 and c = -1 (lambda = 1 - c^2 = 0), in both gauges
    assert sorted(admissible) == sorted((g, c) for g in GAUGES for c in (1.0, -1.0))
