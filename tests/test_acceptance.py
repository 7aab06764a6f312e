"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All claims are exact combinatorial statements, so every comparison is exact
(tolerance zero); the stated wall-clock budgets are asserted as well.
Criteria needing generic pfaffian ideals plus artinian reduction are not
desk-reproducible; they are covered by the table-coherence checks plus
generated external-CAS scripts (criterion 10).
"""

import hashlib
import json
import time

from aci3 import cli, verify
from aci3.verify import verify_suite


def _report(number: int, title: str, result):
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {title}: {result.detail}")
    assert result.ok, f"criterion {number}: {result.detail}"


def test_c01_monomial_aci_realizes_every_ci_sequence():
    start = time.perf_counter()
    result = verify.check_aci_hilbert()
    elapsed = time.perf_counter() - start
    _report(1, "monomial ACI Hilbert functions (degrees <= 5, all h)", result)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_c02_colon_is_ci_and_link_agrees():
    result = verify.check_colon_link()
    _report(2, "colon ideal is a CI of type (h-a3, a1, a2); link agrees", result)


def test_c03_rigid_resolution_oracle():
    start = time.perf_counter()
    result = verify.check_rigid_resolution()
    elapsed = time.perf_counter() - start
    _report(3, "Koszul oracle reproduces the rigid h = a+1 table, a = 2..5", result)
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_c04_classification_coherence():
    start = time.perf_counter()
    result = verify.check_classification_coherence()
    elapsed = time.perf_counter() - start
    _report(4, "table coherence (Hilbert, duality, a+h law, parity, d*)", result)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_largest_poset_within_budget():
    # (23, 45) has 4095 tables, exactly MAX_POSET_NODES: the largest call the cap admits
    start = time.perf_counter()
    result = cli.run(["classify", "tables", "--a", "23", "--h", "45"])
    elapsed = time.perf_counter() - start
    assert result.status == "ok", result.message
    text = json.dumps(result.payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "98e22d582acd9fc7f324c12edb1f490e26666a3b06585bad62f104576dbf5b5f"
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_c05_t_max():
    result = verify.check_t_max()
    _report(5, "max last-syzygy count at h = 2a, a = 2..8", result)


def test_c06_ah_cancellation():
    result = verify.check_ah_cancellation()
    _report(6, "a+h cancellable exactly when t >= 4, lands in odd family", result)


def test_c07_ci_link_identity():
    result = verify.check_ci_link_identity()
    _report(7, "CI link identity for a = 2..8, all admissible h", result)


def test_c08_gaeta():
    result = verify.check_gaeta()
    _report(8, "Gaeta conditions on both delta builders plus known cases", result)


def test_c09_pfaffian_engine():
    start = time.perf_counter()
    degrees = verify.check_pfaffian_degrees()
    squared = verify.check_pf_squared()
    witness = verify.check_witness_degrees()
    elapsed = time.perf_counter() - start
    _report(9, "sub-pfaffian degrees (len <= 7, entries <= 8)", degrees)
    _report(9, "Pf^2 = det on 100 random specializations per size 2/4/6", squared)
    _report(9, "witness ideal generator degrees sort to (3,3,3,5)", witness)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_c10_cas_scripts():
    result = verify.check_cas_scripts()
    _report(10, "CAS scripts generated, parse-clean, byte-stable", result)


def test_full_suite_passes():
    report = verify_suite("all")
    assert report.passed
    assert len(report.checks) == 12


def test_witnessed_tables_belong_to_classification():
    # extra coherence: every monomial witness's oracle table is enumerated
    from aci3 import aci_construction, betti_numbers, enumerate_tables, rigid_witness
    for a in range(2, 9):
        for h in range(a + 1, 2 * a):
            table = betti_numbers(aci_construction((a, a, a), h))
            assert any(n.table == table for n in enumerate_tables(a, h).nodes)
    # at h = a + 1 the classification is a single rigid table and the
    # monomial witness realizes it
    for a in range(2, 13):
        poset = enumerate_tables(a, a + 1)
        assert len(poset.nodes) == 1
        assert betti_numbers(rigid_witness(a)) == poset.nodes[0].table
