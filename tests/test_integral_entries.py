"""Constructors that take integers reject a non-integral value with a
ValueError instead of truncating it; an integral Fraction is accepted."""

from fractions import Fraction

import pytest

from singdet.exactlinalg import smith_normal_form
from singdet.rings import Cyclo24, LaurentPolynomial


def test_smith_normal_form_rejects_a_non_integral_entry():
    with pytest.raises(ValueError, match="is not an integer"):
        smith_normal_form([[Fraction(3, 2), 0], [0, 2]])
    assert smith_normal_form([[Fraction(4, 2), 0], [0, 3]])[0] == [[1, 0], [0, 6]]


def test_laurent_polynomial_rejects_a_non_integral_coefficient():
    with pytest.raises(ValueError, match="is not an integer"):
        LaurentPolynomial({1: 2.7})
    with pytest.raises(ValueError, match="is not an integer"):
        LaurentPolynomial({0.5: 1})
    assert LaurentPolynomial({Fraction(2, 1): 3.0}) == LaurentPolynomial({2: 3})


def test_cyclo24_rejects_a_non_integral_coordinate():
    with pytest.raises(ValueError, match="is not an integer"):
        Cyclo24((1.5, 0, 0, 0, 0, 0, 0, 0))
    assert str(Cyclo24((Fraction(6, 3), 0, 0, 0, 0, 0, 0, 0))) == "2"
