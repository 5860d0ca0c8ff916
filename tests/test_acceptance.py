"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line
per criterion.  Each test enforces its own runtime budget, so a silent
performance regression fails the gate rather than slipping by.
"""

import time
from fractions import Fraction as F

from lscrystal.cartan import GCM, Weight, dominance_class
from lscrystal.explicit import (
    FORM_I,
    ExplicitPath,
    enumerate_explicit,
    f_explicit,
    to_ls_path,
    validate_explicit,
)
from lscrystal.oracle import (
    SearchBounds,
    check_classification,
    check_connectedness,
    check_crystal_axioms,
    check_operator_equivalence,
    check_structure,
    is_ls_path_oracle,
)
from lscrystal.paths import f_generic
from lscrystal.weyl import orbit_weight, pq_table, x, y

GRIDS = ((2, 3), (3, 2), (2, 5), (3, 3))
M_MAX, S_MAX = 4, 3


def _bounds():
    return SearchBounds(M_MAX, S_MAX)


def test_criterion_1_worked_example_reproduction():
    start = time.monotonic()
    expected_f1 = {
        (2, 3): (FORM_I, 3, 2, (0, F(1, 7), 1)),
        (2, 5): (FORM_I, 2, 3, (0, F(1, 31), F(3, 7), 1)),
        (3, 3): (FORM_I, 2, 4, (0, F(1, 34), F(1, 13), F(2, 5), 1)),
    }
    for a, b in ((2, 3), (2, 5), (3, 3)):
        g = GCM(a, b)
        p = pq_table(g, 5).p
        pi = validate_explicit(FORM_I, 2, 3, (0, F(1, p[4]), F(2, p[3]), 1), g)
        out2 = f_explicit(pi, 2, g)
        assert out2 == ExplicitPath(FORM_I, 2, 3, (0, F(2, p[4]), F(2, p[3]), 1))
        assert to_ls_path(out2) == f_generic(to_ls_path(pi), 2, g)
        out1 = f_explicit(pi, 1, g)
        assert out1 == ExplicitPath(*expected_f1[(a, b)])
        assert to_ls_path(out1) == f_generic(to_ls_path(pi), 1, g)
    assert time.monotonic() - start < 1.0


def test_criterion_2_operator_engine_equivalence():
    for a, b in GRIDS:
        start = time.monotonic()
        report = check_operator_equivalence(GCM(a, b), M_MAX, S_MAX)
        assert report.all_passed, report.to_json_lines()
        assert report.results[0].checked > 0
        assert time.monotonic() - start < 60.0


def test_criterion_3_classification_set_equality():
    for a, b in GRIDS:
        g = GCM(a, b)
        report = check_classification(g, _bounds())
        assert report.all_passed, report.to_json_lines()
        by_name = {r.name: r for r in report.results}
        assert by_name["normal-form-set-equality"].passed
        assert by_name["sigma-chain-length-one"].passed
        # and every normal form of the equivalence window is oracle-valid,
        # including those whose top direction leaves the comparison window
        for ep in enumerate_explicit(g, M_MAX, S_MAX):
            pi = to_ls_path(ep)
            assert is_ls_path_oracle(pi.dirs, pi.times, g, _bounds()), str(ep)


# (sigma-chain-length-one, normal-form-set-equality) checked counts at
# m <= 5, recorded with one chain search per policy breakpoint
WIDE_CLASSIFICATION_COUNTS = {
    (2, 3): (28, 83),
    (3, 2): (28, 83),
    (2, 5): (132, 1151),
    (3, 3): (100, 559),
}


def test_criterion_3_classification_at_m_5():
    for a, b in GRIDS:
        report = check_classification(GCM(a, b), SearchBounds(M_MAX + 1, S_MAX))
        assert report.all_passed, report.to_json_lines()
        by_name = {r.name: r.checked for r in report.results}
        counts = (by_name["sigma-chain-length-one"], by_name["normal-form-set-equality"])
        assert counts == WIDE_CLASSIFICATION_COUNTS[(a, b)]


def test_criterion_4_connectedness_at_desk_scale():
    for a, b in GRIDS:
        report = check_connectedness(GCM(a, b), _bounds())
        assert report.all_passed, report.to_json_lines()


# (reduction-to-straight, bfs-coverage) checked counts at m <= 5,
# recorded with the iterated e_max/f_max
WIDE_CONNECTEDNESS_COUNTS = {
    (2, 3): (83, 83),
    (3, 2): (83, 83),
    (2, 5): (1151, 1151),
    (3, 3): (559, 559),
}


def test_criterion_4_connectedness_at_m_5():
    for a, b in GRIDS:
        report = check_connectedness(GCM(a, b), SearchBounds(M_MAX + 1, S_MAX))
        assert report.all_passed, report.to_json_lines()
        by_name = {r.name: r.checked for r in report.results}
        counts = (by_name["reduction-to-straight"], by_name["bfs-coverage"])
        assert counts == WIDE_CONNECTEDNESS_COUNTS[(a, b)]


def test_criterion_5_crystal_axioms():
    for a, b in GRIDS:
        report = check_crystal_axioms(GCM(a, b), _bounds())
        assert report.all_passed, report.to_json_lines()


# (weight-step and inverse-pair, each string and minima row) checked
# counts at m <= 5, recorded with one iterated walk per path and string
WIDE_AXIOM_COUNTS = {
    (2, 3): (223, 166),
    (3, 2): (223, 166),
    (2, 5): (3385, 2302),
    (3, 3): (1624, 1118),
}


def test_criterion_5_crystal_axioms_at_m_5():
    for a, b in GRIDS:
        report = check_crystal_axioms(GCM(a, b), SearchBounds(M_MAX + 1, S_MAX))
        assert report.all_passed, report.to_json_lines()
        steps, strings = WIDE_AXIOM_COUNTS[(a, b)]
        assert {r.name: r.checked for r in report.results} == {
            "weight-step": steps,
            "inverse-pair": steps,
            "string-balance": strings,
            "epsilon-is-minus-min": strings,
            "phi-is-endpoint-minus-min": strings,
            "integral-local-minima": strings,
        }


def test_criterion_6_structural_invariants():
    start = time.monotonic()
    for a, b in GRIDS:
        report = check_structure(GCM(a, b), _bounds())
        assert report.all_passed, report.to_json_lines()
    for a, b in ((1, 5), (5, 1), (1, 9), (9, 1)):
        g = GCM(a, b)
        assert check_structure(g, SearchBounds(1, 1)).all_passed
    assert orbit_weight(y(1), GCM(1, 5)) == Weight(0, 1)
    assert dominance_class(orbit_weight(y(1), GCM(1, 5))) == "dominant"
    assert orbit_weight(x(1), GCM(5, 1)) == Weight(-1, 0)
    assert dominance_class(orbit_weight(x(1), GCM(5, 1))) == "antidominant"
    assert time.monotonic() - start < 5.0
