from fractions import Fraction

import pytest

from domlab import formulas as F


def test_complete_cases():
    assert F.f_complete(5, 2).value == 5  # n <= 2k+1
    assert F.f_complete(6, 2).value == 3  # k+1
    assert not F.f_complete(3, 3).applicable


def test_complement_cycle_cases():
    assert F.f_complement_cycle(6, 2).value == 6   # n <= 2k+2
    assert F.f_complement_cycle(8, 2).value == 4   # middle: k+2
    assert F.f_complement_cycle(9, 2).value == 3   # n >= 3k+3
    assert not F.f_complement_cycle(4, 2).applicable


def test_complement_path_cases():
    assert F.f_complement_path(4, 1).value == 4
    assert F.f_complement_path(5, 1).value == 2
    assert F.f_complement_path(6, 2).value == 6
    assert F.f_complement_path(9, 3).value == 5   # 2k+3 <= n <= 3k
    assert F.f_complement_path(7, 2).value == 3   # n >= 3k+1
    assert not F.f_complement_path(4, 2).applicable


def test_cycle_residues():
    assert F.f_cycle(5, 1).value == 3
    assert F.f_cycle(7, 1).value == 5
    assert F.f_cycle(8, 1).value == 4
    assert F.f_cycle(6, 2).value == 6
    assert not F.f_cycle(6, 3).applicable


def test_bipartite_symmetry():
    assert F.f_complete_bipartite(5, 3, 1).value == 2
    assert F.f_complete_bipartite(3, 5, 1).value == 2
    assert F.f_complete_bipartite(5, 3, 2).value == 8  # m < 2k
    assert not F.f_complete_bipartite(1, 3, 2).applicable


def test_multipartite_interval():
    # each t0 is t0_exact's
    v = F.f_multipartite_bounds((4, 4, 4), 2, t0=2)
    assert v.applicable
    assert v.lower == 3 and v.upper == 8    # 12 - 2 - ceil(2/1)
    assert v.brackets(3)
    point = F.f_multipartite_bounds((2, 2, 2), 2, t0=3)
    assert point.lower == point.upper == 3
    assert not F.f_multipartite_bounds((4, 4), 2, t0=2).applicable
    # t0 = 0: the value is n, outside the stated range
    assert not F.f_multipartite_bounds((1, 1, 1), 2, t0=0).applicable
    assert not F.f_multipartite_bounds((2, 2, 2), 3, t0=0).applicable


def test_verdict_refuses_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        F.FormulaVerdict(lower=3, upper=1)


def test_lower_edges_bound():
    v = F.f_lower_edges(8, 10, 1)
    assert v.lower == Fraction(2)
    assert v.brackets(2) and not v.brackets(1)
    assert not F.f_lower_edges(8, 10, 0).applicable


def test_domatic_formulas():
    assert F.f_domatic_complete(6, 1).value == 3
    assert F.f_domatic_caps(10, 2).upper == 3
    assert F.f_domatic_caps(10, 2, bipartite=True).upper == 2
    assert not F.f_domatic_complete(3, 3).applicable
    assert not F.f_domatic_caps(10, 0).applicable


def test_prism_cycle_formula():
    assert F.f_prism_cycle_k2(4).value == 8
    assert F.f_prism_cycle_k2(5).value == 10
    assert F.f_prism_cycle_k2(6).value == 8
    assert not F.f_prism_cycle_k2(3).applicable


def test_prism_path_formula():
    assert F.f_prism_k1(4).value == 4
    assert F.f_prism_k1(5).value == 4
    assert F.f_prism_k1(6).value == 4
    assert F.f_prism_k1(7).value == 5
    assert F.f_prism_k1(8).value == 6  # as stated; solver refutes (see report)
    assert not F.f_prism_k1(3).applicable


def test_regular_window():
    assert F.f_prism_regular_lb(5, 2, 2).value == 10  # n <= ell+2k-1
    lb = F.f_prism_regular_lb(8, 2, 2)
    assert lb.render() == ">=10" and lb.lower == 10
    assert not F.f_prism_regular_lb(8, 3, 2).applicable


def test_sandwich():
    v = F.f_prism_sandwich(4, 2, 6, 6, 2)
    assert v.lower == 6 and v.upper == 12
    assert v.brackets(8)
    k1 = F.f_prism_sandwich(0, 0, 3, 4, 1)
    assert k1.render() == "<=7" and k1.upper == 7
    assert not F.f_prism_sandwich(0, 0, 3, 4, 0).applicable


def test_kjoin():
    assert F.f_kjoin_gamma(3, 2).value == 3
    assert not F.f_kjoin_gamma(2, 2).applicable


def test_prelemmas():
    assert F.f_prism_cycle_k2_total(6).value == 8
    assert F.f_prism_cycle_k2_total(5).value == 7  # as stated; solver refutes
    assert not F.f_prism_cycle_k2_total(4).applicable


def test_render_and_brackets():
    v = F.f_multipartite_bounds((3, 3, 3), 1, t0=2)
    assert v.render().startswith("[")
    na = F.f_cycle(3, 1)
    assert na.render() == "n/a" and na.brackets(99)


def test_fractional_bounds_round_inward_to_ints():
    for bound, expected in (
            (F.f_lower_edges(5, 5, 3).lower, 6),                # 35/6
            (F.f_multipartite_bounds((2, 2, 2), 1, t0=2).lower, 2),     # 3/2
            (F.f_multipartite_bounds((2, 2, 2, 2), 2, t0=2).lower, 3),  # 8/3
            # 12 - 3 - ceil(3/2)
            (F.f_multipartite_bounds((4, 4, 4), 3, t0=3).upper, 7),
            (F.f_domatic_caps(10, 3).upper, 2)):                # 5/2
        assert type(bound) is int and bound == expected
