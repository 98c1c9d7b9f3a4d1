"""The value semantics of the package's record and value classes, which are
NamedTuples or `exactlinalg.Frozen` subclasses: equal arguments give equal
objects with equal hashes where the fields are hashable, an attribute
cannot be assigned, the repr names the class, and objects of different
classes are unequal, even on equal fields."""

import importlib
import pkgutil

import pytest

import singdet
from singdet.corpus import CorpusEntry
from singdet.diagrams import LinkDiagram, parse_pd, seifert_structure
from singdet.exactlinalg import (
    CokernelDecomposition,
    CongruenceCore,
    Frozen,
    IntegerSymmetricMatrix,
    SeifertData,
    SpanningSurfaceData,
)
from singdet.linkform import LinkingFormPresentation, WallDecomposition
from singdet.obstruct import LickorishReport, SignedUnknottingConstraint, StoimenowReport
from singdet.reference import UnimodularTransform
from singdet.rings import Cyclo24, LaurentPolynomial, Root5

from oracles import JonesSpecialValues, LinkInvariantBundle, PAdicValuation, RationalSymmetricMatrix
from test_cli_input import TREFOIL_PD

E = [[-2, 1], [1, -2]]

# class name -> a function that builds a new object from the same arguments;
# IntegerSymmetricMatrix and SpanningSurfaceData share their entries
MAKE = {
    "IntegerSymmetricMatrix": lambda: IntegerSymmetricMatrix(E),
    "SpanningSurfaceData": lambda: SpanningSurfaceData(IntegerSymmetricMatrix(E), 1, 0),
    "SeifertData": lambda: SeifertData([[-1, 1], [0, -1]]),
    "CokernelDecomposition": lambda: CokernelDecomposition({3: (0, 1)}, 0, 3, (1, 3)),
    "CongruenceCore": lambda: CongruenceCore(0, 3, IntegerSymmetricMatrix(E), 1),
    "Cyclo24": lambda: Cyclo24((0, -1, 0, 0, 0, 0, 0, 0)),
    "Root5": lambda: Root5(0, -1),
    "LaurentPolynomial": lambda: LaurentPolynomial({-2: 1, 2: 1}),
    "LinkingFormPresentation": lambda: LinkingFormPresentation(IntegerSymmetricMatrix(E)),
    "WallDecomposition": lambda: WallDecomposition([(3, 1, "A")]),
    "SignedUnknottingConstraint": lambda: SignedUnknottingConstraint(3, 1, -1),
    "LickorishReport": lambda: LickorishReport((1,), {3: (1, 1, {1: True, -1: False})}),
    "StoimenowReport": lambda: StoimenowReport(Root5(0, -1), False, Root5(0, 1), False),
    "CorpusEntry": lambda: CorpusEntry("3_1", parse_pd(TREFOIL_PD), None, None),
    "LinkDiagram": lambda: LinkDiagram(parse_pd(TREFOIL_PD).crossings),
    "_SeifertStructure": lambda: seifert_structure(parse_pd(TREFOIL_PD)),
    "RationalSymmetricMatrix": lambda: RationalSymmetricMatrix(E),
    "UnimodularTransform": lambda: UnimodularTransform([[1, 1], [0, 1]]),
    "PAdicValuation": lambda: PAdicValuation(1),
    "LinkInvariantBundle": lambda: LinkInvariantBundle(1, 3, -2, {3: 1}, {3: 1}, -1),
    "JonesSpecialValues": lambda: JonesSpecialValues(*(Cyclo24.from_int(k) for k in range(5))),
}


def hash_or_none(obj):
    try:
        return hash(obj)
    except TypeError:  # a dict field
        return None


@pytest.mark.parametrize("name", sorted(MAKE))
def test_value_semantics(name):
    a, b = MAKE[name](), MAKE[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert hash_or_none(a) == hash_or_none(b)
    for attr in (a._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == b
    assert repr(a).startswith(f"{name}(")
    for other in (make() for key, make in MAKE.items() if key != name):
        assert a != other and not a == other


def test_every_value_class_has_an_entry():
    """Every Frozen subclass and namedtuple record that a singdet module
    defines is checked above."""
    defined = set()
    for info in pkgutil.iter_modules(singdet.__path__):
        module = importlib.import_module(f"singdet.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__ and obj is not Frozen
                    and (issubclass(obj, Frozen) or issubclass(obj, tuple) and hasattr(obj, "_fields"))):
                defined.add(obj.__name__)
    assert defined and defined <= set(MAKE), sorted(defined - set(MAKE))
