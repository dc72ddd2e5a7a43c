from collections import Counter

import pytest

from rank3mod.expected import FF, OMEGA, delta, expected


def test_delta_convention():
    # delta_{i,j} = 1 iff i divides j
    assert delta(3, 9) == 1
    assert delta(3, 10) == 0
    assert delta(7, 7) == 1
    assert delta(17, 15) == 0


def test_rejects_even_and_composite_ell():
    with pytest.raises(ValueError):
        expected("o+", 3, 2)
    with pytest.raises(ValueError):
        expected("o+", 3, 9)


ACCEPTANCE_ROWS = [
    # family, size, ell, expected dims, expected factor multiset
    ("o+", 3, 5, {"X": 7, "Y": 20}, {FF: 1, "X": 1, "Y": 1}),
    ("o+", 3, 7, {"X": 7, "Y": 19}, {FF: 2, "X": 1, "Y": 1}),
    ("o+", 3, 3, {"X": 7, "Z": 13}, {FF: 1, "X": 2, "Z": 1}),
    ("o+", 4, 3, {"X": 35, "Z": 48}, {FF: 2, "X": 2, "Z": 1}),
    ("o-", 3, 5, {"X": 15, "Y": 20}, {FF: 1, "X": 1, "Y": 1}),
    ("o-", 3, 7, {"X": 15, "Y": 20}, {FF: 1, "X": 1, "Y": 1}),
    ("o-", 4, 17, {"X": 51, "Y": 83}, {FF: 2, "X": 1, "Y": 1}),
    ("o-", 3, 3, {"X": 14, "Z": 5, OMEGA: 1}, {FF: 2, "X": 2, OMEGA: 1, "Z": 1}),
    ("o-", 4, 3, {"X": 50, "Z": 34, OMEGA: 1}, {FF: 1, "X": 2, OMEGA: 1, "Z": 1}),
    ("u", 4, 7, {"X": 15, "Y": 24}, {FF: 1, "X": 1, "Y": 1}),
    ("u", 4, 5, {"X": 15, "Y": 23}, {FF: 2, "X": 1, "Y": 1}),
    ("u", 4, 3, {"Z": 10, "W1": 5, "W2": 14}, {FF: 1, "Z": 2, "W1": 1, "W2": 1}),
    ("u", 6, 3, {"Z": 210, "W1": 21, "W2": 229}, {FF: 2, "Z": 2, "W1": 1, "W2": 1}),
    ("u", 5, 5, {"X": 55, "Y": 120}, {FF: 1, "X": 1, "Y": 1}),
    ("u", 5, 11, {"X": 55, "Y": 119}, {FF: 2, "X": 1, "Y": 1}),
    ("u", 5, 3, {"X": 55, "Z": 10, "W": 44}, {FF: 2, "X": 2, "Z": 2, "W": 1}),
    ("u", 7, 3, {"X": 903, "Z": 42, "W": 859}, {FF: 3, "X": 2, "Z": 2, "W": 1}),
]


@pytest.mark.parametrize("family,size,ell,dims,factors", ACCEPTANCE_ROWS)
def test_expected_dims_and_factors(family, size, ell, dims, factors):
    exp = expected(family, size, ell)
    for lab, d in dims.items():
        assert exp.dims[lab] == d, (lab, exp.dims)
    assert exp.factors == Counter(factors)
    total = sum(exp.dims[lab] * m for lab, m in exp.factors.items())
    from rank3mod.analyze import canon_size
    from rank3mod.geometry import closed_params

    assert total == closed_params(canon_size(family, size)).v


def test_typo_flags():
    assert expected("o-", 3, 7).flags == ["TABLE2_Y_DELTA"]
    assert expected("o-", 4, 17).flags == ["TABLE2_Y_DELTA"]
    assert expected("o-", 3, 5).flags == []
    assert "U_EVEN_S_PAREN" in expected("u", 4, 3).flags


def test_printed_vs_corrected_y():
    exp = expected("o-", 3, 7)
    assert exp.printed_dims["Y"] == 19 and exp.dims["Y"] == 20
    exp = expected("o-", 4, 17)
    assert exp.printed_dims["Y"] == 84 and exp.dims["Y"] == 83


def test_out_of_scale_row():
    exp = expected("u", 9, 3)
    assert exp.socle is None and exp.lattice_nodes is None
    assert exp.factors == Counter({FF: 2, "X": 2, "Z": 2, "W": 1})
    assert "43776" in exp.note


def test_rows_exclusive_and_exhaustive_for_odd_ell():
    # every odd prime selects exactly one row per family and size
    for ell in [3, 5, 7, 11, 13, 17, 31, 127]:
        for family, sizes in [("o+", [3, 4, 5]), ("o-", [3, 4, 5]), ("u", [4, 5, 6, 7])]:
            for size in sizes:
                exp = expected(family, size, ell)
                assert exp.row


def test_lattice_node_counts():
    assert len(expected("o+", 3, 5).lattice_nodes) == 8
    assert len(expected("o+", 3, 7).lattice_nodes) == 8
    assert len(expected("o+", 4, 3).lattice_nodes) == 8
    assert len(expected("o-", 3, 3).lattice_nodes) == 12
    assert len(expected("o-", 4, 3).lattice_nodes) == 12
    assert len(expected("u", 4, 3).lattice_nodes) == 12
    assert len(expected("u", 6, 3).lattice_nodes) == 12
    # ell = 3 pencils: two trivial-square sections, each with ell - 1 diagonals
    assert len(expected("u", 5, 3).lattice_nodes) == 20
    assert len(expected("u", 7, 3).lattice_nodes) == 20


def test_socle_layer_sums_match_point_count():
    for family, size, ell in [(f, s, e) for f, s, e, _, _ in ACCEPTANCE_ROWS]:
        exp = expected(family, size, ell)
        total = sum(
            exp.dims[lab] * m for layer in exp.socle for lab, m in layer.items()
        )
        from rank3mod.analyze import canon_size
        from rank3mod.geometry import closed_params

        assert total == closed_params(canon_size(family, size)).v


def test_dims_are_positive_integers():
    for family, size, ell, _, _ in ACCEPTANCE_ROWS:
        exp = expected(family, size, ell)
        assert all(isinstance(d, int) and d >= 1 for d in exp.dims.values())
