"""Value types: their fields refuse assignment, and a section is no sequence."""

import pytest

from contactconics import CASE_I, ONE, curves, is_weak_contact, parsing, zariski_pair_report

TYPE_NAMES = [
    "ContactCertificate",
    "ContactClass",
    "InfinityContact",
    "_PairIntersection",
    "_ClassRecord",
    "WorkedExample",
    "HeightContext",
    "WeierstrassModel",
    "Section",
    "FiberCollection",
    "FiberInfo",
    "CaseLattice",
    "CaseFiber",
    "_IntegerLDL",
    "ZariskiReport",
    "PairCheck",
    "_Token",
    "_Frac",
]


@pytest.fixture(scope="module")
def values(example, context):
    """One value of each type in TYPE_NAMES, by type name."""
    quartic, conic = example.quartic, example.conics["C0"]
    certificate = is_weak_contact(quartic, conic)
    report = zariski_pair_report("B11-B21")
    one = parsing._MultiPoly.constant(1, ONE)
    found = [
        certificate,
        certificate.classes[0],
        certificate.infinity[0],
        curves._pair_intersection(quartic, conic),
        curves._pair_class_records(quartic, conic, [], quartic)[0],
        example,
        context,
        example.model,
        example.section("P1"),
        context.fibers,
        context.fibers[0],
        CASE_I,
        CASE_I.fibers[0],
        CASE_I.ldl,
        report,
        report.checks[0],
        parsing._tokenize("1")[0],
        parsing._Frac(one, one),
    ]
    return {type(value).__name__: value for value in found}


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_fields_refuse_assignment(values, name):
    value = values[name]
    fields = getattr(type(value), "_fields", None) or type(value).__slots__
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_a_section_is_no_sequence(example):
    # n * P is the group law; a section is neither repeated nor measured
    section = example.section("P1")
    with pytest.raises(TypeError):
        section * 2
    with pytest.raises(TypeError):
        len(section)
