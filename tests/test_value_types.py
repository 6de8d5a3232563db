"""Value types: their fields refuse assignment, their reprs name them, and a
section is no sequence."""

import pytest

from contactconics import (
    CASE_I,
    ONE,
    RatFunc,
    classify_fibers,
    curves,
    is_weak_contact,
    parsing,
    zariski_pair_report,
)

TYPE_NAMES = [
    "ContactCertificate",
    "ContactClass",
    "InfinityContact",
    "_PairIntersection",
    "_ClassRecord",
    "WorkedExample",
    "WeierstrassModel",
    "Section",
    "FiberInfo",
    "CaseLattice",
    "CaseFiber",
    "_IntegerLDL",
    "ZariskiReport",
    "PairCheck",
    "_Token",
    "_Frac",
    "Poly",
    "RatFunc",
    "BiPoly",
    "TriForm",
    "PlanePoint",
    "PlaneCurve",
]


@pytest.fixture(scope="module")
def values(example):
    """One value of each type in TYPE_NAMES, by type name."""
    quartic, conic = example.quartic, example.curve("C0")
    certificate = is_weak_contact(quartic, conic)
    report = zariski_pair_report("B11-B21")
    found = [
        certificate,
        certificate.classes[0],
        certificate.infinity[0],
        curves._pair_intersection(quartic, conic),
        curves._ClassRecord(1, 2, "smooth", (2,)),
        example,
        example.model,
        example.section("P1"),
        classify_fibers(example.model)[0],
        CASE_I,
        CASE_I.fibers[0],
        CASE_I.ldl,
        report,
        report.checks[0],
        parsing._tokenize("1")[0],
        parsing._Frac(parsing._constant(ONE)),
        example.model.a2,
        example.section("P1").x,
        example.model.cubic(),
        quartic.form,
        example.tangency_point,
        quartic,
    ]
    return {type(value).__name__: value for value in found}


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_fields_refuse_assignment(values, name):
    value = values[name]
    fields = getattr(type(value), "_fields", None) or type(value).__slots__
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_a_repr_starts_with_the_type_name(values, name):
    # _Frac keeps object's repr, which names the type after its module
    value = values[name]
    assert repr(value).startswith((name, f"<{type(value).__module__}.{name} object"))


def test_equal_rational_functions_hash_equal(example):
    x = example.section("P3").x
    factor = x.num + x.den  # cancelled on construction
    same = RatFunc(x.num * factor, x.den * factor)
    assert same == x and hash(same) == hash(x)


def test_a_section_is_no_sequence(example):
    # n * P is the group law; a section is neither repeated nor measured
    section = example.section("P1")
    with pytest.raises(TypeError):
        section * 2
    with pytest.raises(TypeError):
        len(section)
