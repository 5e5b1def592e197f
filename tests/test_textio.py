"""Input parsing and the bundled fixture files."""

import re
from fractions import Fraction

import pytest

from mixedchar.cli import _load_ideal
from mixedchar.monomials import MonomialIdeal
from mixedchar.scalars import DVR, PrimeField, RationalField
from mixedchar.textio import (
    MAX_VARIABLES,
    load_facets_text,
    load_generators_text,
    load_ideal_text,
    parse_polynomial,
    reisner_ideal,
    rp2_facets,
    schmitt_vogel_generators,
    variable_count,
)

from .conftest import REISNER_ROWS, RP2_FACETS
from .oracles import ZZ, coefficient

QQ = RationalField()


def test_parse_polynomial_terms():
    f = parse_polynomial("3*x0^2*x1 - 1/2*x1 + 4", QQ)
    assert f.n == 2
    assert f.terms == {
        (2, 1): Fraction(3),
        (0, 1): Fraction(-1, 2),
        (0, 0): Fraction(4),
    }


def test_parse_polynomial_repeated_variable_multiplies():
    f = parse_polynomial("x0*x0^3*2*x1", ZZ)
    assert f.terms == {(4, 1): 2}


def test_parse_polynomial_cancellation():
    f = parse_polynomial("x0 + x0 - 2*x0", ZZ)
    assert f.is_zero()


def test_parse_polynomial_rejects_inexact_coefficient():
    with pytest.raises(ValueError, match="1/2"):
        parse_polynomial("1/2*x0", ZZ)


def test_a_denominator_that_is_zero_in_the_ring_is_a_value_error():
    # 3 is zero in F_3, and 0 in every ring: a ValueError naming the term,
    # not a ZeroDivisionError from the ring's division
    cases = [(ring, "1/0*x0") for ring in (ZZ, QQ, DVR(2), PrimeField(3))]
    cases += [(PrimeField(3), "x1 - 1/3*x0"), (PrimeField(2), "2/4*x0")]
    for ring, text in cases:
        term = re.escape(text.replace(" ", "")[-6:])
        with pytest.raises(ValueError, match=f"in term '-?{term}': .* denominator zero"):
            parse_polynomial(text, ring)
    assert parse_polynomial("1/3*x0", PrimeField(5)).terms == {(1,): 2}


def test_parse_polynomial_dvr_fraction():
    R = DVR(5)
    f = parse_polynomial("3/4*x0", R)
    c = coefficient(f, (1,))
    assert c.valuation() == 0 and c.to_fraction() == Fraction(3, 4)


def test_parse_polynomial_bad_factor():
    with pytest.raises(ValueError, match="bad factor"):
        parse_polynomial("x0*y1", ZZ)
    with pytest.raises(ValueError, match="bad factor"):
        parse_polynomial("x0^-2", ZZ)


def test_parse_polynomial_constant_needs_n():
    with pytest.raises(ValueError, match="pass n"):
        parse_polynomial("7", ZZ)
    f = parse_polynomial("7", ZZ, n=3)
    assert f.is_constant() and f.terms == {(0, 0, 0): 7}


def test_parse_polynomial_out_of_range_variable():
    with pytest.raises(ValueError, match="out of range"):
        parse_polynomial("x5", ZZ, n=2)


def test_parse_polynomial_rejects_a_dangling_sign():
    for text in ("x0 +", "x0 ++ x1", "+", "x0 - -x1", "-"):
        with pytest.raises(ValueError, match="a sign with no term after it"):
            parse_polynomial(text, ZZ, n=2)
    assert parse_polynomial("-x0 + x1", ZZ) == parse_polynomial("x1 - x0", ZZ)


def test_headerless_generators_share_one_variable_count():
    fs = load_generators_text("x0\nx3 + 1\n", ZZ)
    assert all(f.n == 4 for f in fs)
    assert fs == load_generators_text("vars 4\nx0\nx3 + 1\n", ZZ)


def test_variable_count_is_capped_on_every_path():
    # the count is checked before any term becomes an n-tuple, so a short
    # input cannot make every term huge
    top = f"x{MAX_VARIABLES - 1}"
    assert parse_polynomial(top, ZZ).n == MAX_VARIABLES
    assert load_generators_text(f"{top}\n", ZZ)[0].n == MAX_VARIABLES
    message = f"outside 1..{MAX_VARIABLES}"
    for n in (-1, 0, MAX_VARIABLES + 1, 10**6):
        with pytest.raises(ValueError, match=f"^variable count {n} {message}"):
            parse_polynomial("x0", ZZ, n)
    with pytest.raises(ValueError, match=f"^variable count {MAX_VARIABLES + 1} "):
        parse_polynomial(f"x{MAX_VARIABLES}", ZZ)
    with pytest.raises(ValueError, match=f"^g.gens:2: variable count 1000000 {message}"):
        load_generators_text("# big\nvars 1000000\n2*x0\n", ZZ, source="g.gens")
    with pytest.raises(ValueError, match=f"^g.gens: variable count 100000000 {message}"):
        load_generators_text("x0\nx99999999\n", ZZ, source="g.gens")


def test_variable_count_rule():
    assert variable_count("7") == 1
    assert variable_count("x0^2+2*x1") == 2
    assert variable_count("3*x0 - x12^5") == 13
    assert variable_count("x 1 + 2") == parse_polynomial("x 1 + 2", ZZ).n == 2
    assert load_generators_text("x0\nx 3 + 1\n", ZZ)[0].n == 4


def test_load_ideal_text_roundtrip():
    I = load_ideal_text("# leading comment\nvars 2\n1 1\n0 2  # inline\n\n")
    assert I == MonomialIdeal(2, [(1, 1), (0, 2)])


def test_load_ideal_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="<string>:1: expected 'vars <n>'"):
        load_ideal_text("generators 2\n1 1\n")
    with pytest.raises(ValueError, match="f.ideal:3: expected 2 nonnegative"):
        load_ideal_text("vars 2\n1 1\n1 2 3\n", source="f.ideal")
    with pytest.raises(ValueError, match=":2"):
        load_ideal_text("vars 2\n1 -1\n")
    with pytest.raises(ValueError, match="no generator rows"):
        load_ideal_text("vars 4\n")
    with pytest.raises(ValueError, match="empty file"):
        load_ideal_text("# nothing here\n")


def test_load_ideal_from_path(tmp_path):
    # the command line reads ideal files and names them in its errors
    p = tmp_path / "two.ideal"
    p.write_text("vars 1\n3\n")
    assert _load_ideal(str(p)) == (MonomialIdeal(1, [(3,)]), str(p))
    p.write_text("vars 1\nx\n")
    with pytest.raises(ValueError, match="two.ideal:2"):
        _load_ideal(str(p))


def test_load_facets_text():
    n, facets = load_facets_text("vertices 4\n2 0 1\n3\n")
    assert n == 4
    assert facets == ((0, 1, 2), (3,))
    with pytest.raises(ValueError, match="repeated vertex"):
        load_facets_text("vertices 3\n0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_facets_text("vertices 3\n0 3\n")


def test_load_generators_text_line_numbers():
    gens = load_generators_text("vars 2\nx0 + x1\nx1^2\n", ZZ)
    assert len(gens) == 2 and gens[0].n == 2
    with pytest.raises(ValueError, match="g.gens:3: in term"):
        load_generators_text("vars 2\nx0\nx0 + zz\n", ZZ, source="g.gens")


def test_headerless_generator_errors_carry_line_numbers():
    # without the header the line numbers are the file's own, comments included
    with pytest.raises(ValueError, match=r"^g.txt:3: in term '\+\*x2'"):
        load_generators_text("# two lines\nx0 + x1\nx1 +*x2\n", ZZ, source="g.txt")
    with pytest.raises(ValueError, match=r"^g.txt:2: a sign with no term"):
        load_generators_text("x0\nx1 +\n", ZZ, source="g.txt")
    with pytest.raises(ValueError, match="g.txt: cannot infer the variable count"):
        load_generators_text("3\n4\n", ZZ, source="g.txt")
    for text in ("", "# only a comment\n", "vars 2\n"):
        with pytest.raises(ValueError, match="g.txt: no generators given"):
            load_generators_text(text, ZZ, source="g.txt")


def test_bundled_reisner_ideal():
    I = reisner_ideal()
    assert I.n == 6
    assert I == MonomialIdeal(6, REISNER_ROWS)
    assert set(I.gens) == set(REISNER_ROWS)


def test_bundled_rp2_facets():
    n, facets = rp2_facets()
    assert n == 6
    assert facets == RP2_FACETS


def test_bundled_schmitt_vogel_terms_lie_in_the_ideal():
    gens = schmitt_vogel_generators(QQ)
    assert [len(g.terms) for g in gens] == [1, 3, 3, 3]
    rows = set(REISNER_ROWS)
    seen = set()
    for g in gens:
        for e, c in g.terms.items():
            assert c == 1
            assert e in rows
            seen.add(e)
    assert seen == rows

