"""The bundled worked example: a two-node one-cusp quartic and its contact conics.

All data is stored as text in the input grammars so it can be audited by
eye.  Every stated identity is re-verified each time the example is
built: the quadratic-transformation images, the normalizing frame, the
singular points, the sections with their group relations, and the
correspondence between sections and the companion lines and contact
conics.  The first identity that fails aborts the load with an
IntegrityError naming it.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, TypeVar

from .curves import (
    CUSP,
    NODE,
    PlaneCurve,
    PlanePoint,
    _matrix_inverse_3x3,
    cremona_point,
    cremona_transform,
    intersection_multiplicity,
)
from .errors import ContactConicsError, IntegrityError, PreconditionError
from .field import FieldElem, ONE
from .parsing import parse_bipoly, parse_point, parse_section, parse_triform
from .poly import TriForm
from .surface import (
    Section,
    WeierstrassModel,
    from_quartic,
    section_to_plane_curve,
)

_T = TypeVar("_T")

_Z_FORM = TriForm(1, {(0, 0, 1): ONE})

# Raw fixture data.  Projective forms use T, X, Z; affine charts use
# t = T/Z, x = X/Z; r2 is the square root of 2 and i the imaginary unit.
_RAW: Mapping[str, str] = MappingProxyType(
    {
        # The smooth conic whose quadratic-transformation image is the quartic,
        # the triangle of fundamental lines, and the tangent line whose image
        # is the distinguished contact conic.
        "conic": "X*Z - T^2",
        "triangle_1": "T - X + Z",
        "triangle_2": "T + X - Z",
        "triangle_3": "Z",
        "tangent_line": "X",
        "tangency_point": "[0, 0, 1]",
        # Images under the quadratic map, the marked tangency between them,
        # and the quartic's tangent line there.
        "quartic_image": "Z^2*X^2 + 2*Z^2*X*T + Z^2*T^2 + 2*T*X^2*Z - 2*T^2*X*Z - 4*T^2*X^2",
        "conic_image": "2*T*X + T*Z - X*Z",
        "marked_point": "[-1, 1, -1]",
        "marked_tangent": "T - X - 2*Z",
        # Point map sending the marked point to [0,1,0] and the marked
        # tangent to the line at infinity.
        "frame_row_1": "[1, 1, 0]",
        "frame_row_2": "[0, 1, 0]",
        "frame_row_3": "[1, -1, -2]",
        # The normalized quartic: a monic cubic in x over K[t].
        "quartic_chart": "x^3 + (t^2 - 3/2*t)*x^2 + (t^2 - t^3)*x + 1/8*t^2*(t - 1)^2",
        # Its singular points.
        "node_1": "[-1, -1, 1]",
        "node_2": "[1, 0, 1]",
        "cusp": "[0, 0, 1]",
        # Sections of the associated elliptic surface.
        "section_P0": "(1/2*(t - t^2), 1/4*r2*t*(t - 1)*(t + 1))",
        "section_P1": "(0, 1/4*r2*t*(t - 1))",
        "section_P2": "(t, 1/4*r2*(t + 1)*t)",
        "section_P3": "(1/2*(t - 1), 1/4*i*r2*(t - 1)*(t + 1))",
        # Stated coordinates of the doubled sections.
        "double_P0": "(1/8*t*(t + 4), -1/32*r2*t*(3*t^2 - 8))",
        "double_P1": "(1/2*(2*t + 3)*t, 1/4*r2*(4*t^2 + 5*t + 1)*t)",
        "double_P2": "(1/2*(2*t - 1)*t, -1/4*r2*(4*t^2 - 5*t + 1)*t)",
        # Companion lines (images of P1, P2, P3) and contact conics
        # (image of P0, and images of the doubled sections).
        "line_1": "x",
        "line_2": "x - t",
        "line_3": "2*x - t + 1",
        "conic_bar": "2*x + t^2 - t",
        "conic_0": "8*x - t*(t + 4)",
        "conic_1": "2*x - (2*t + 3)*t",
        "conic_2": "2*x - (2*t - 1)*t",
    }
)

# Arrangements under study: the quartic plus one companion curve plus one
# doubled-section conic.
ARRANGEMENTS: Mapping[str, tuple[str, str, str]] = MappingProxyType(
    {
        "B10": ("Q", "L1", "C0"),
        "B11": ("Q", "L1", "C1"),
        "B12": ("Q", "L1", "C2"),
        "B20": ("Q", "L2", "C0"),
        "B21": ("Q", "L2", "C1"),
        "B22": ("Q", "L2", "C2"),
        "D0": ("Q", "Cbar", "C0"),
        "D1": ("Q", "Cbar", "C1"),
        "D2": ("Q", "Cbar", "C2"),
    }
)

ARRANGEMENT_NAMES: tuple[str, ...] = tuple(sorted(ARRANGEMENTS))

SECTION_NAMES: tuple[str, ...] = ("P0", "P1", "P2", "P3")


class WorkedExample(NamedTuple):
    """Parsed and verified data of the bundled example."""

    conic: PlaneCurve
    triangle: tuple[PlaneCurve, PlaneCurve, PlaneCurve]
    tangent_line: PlaneCurve
    tangency_point: PlanePoint
    quartic_image: PlaneCurve
    conic_image: PlaneCurve
    marked_point: PlanePoint
    marked_tangent: PlaneCurve
    frame: tuple[tuple[FieldElem, FieldElem, FieldElem], ...]
    quartic: PlaneCurve
    model: WeierstrassModel
    sections: Mapping[str, Section]
    doubles: Mapping[str, Section]
    lines: Mapping[str, PlaneCurve]
    conics: Mapping[str, PlaneCurve]
    nodes: tuple[PlanePoint, PlanePoint]
    cusp: PlanePoint
    verified: tuple[str, ...]

    def curve(self, name: str) -> PlaneCurve:
        """Look up an arrangement component: Q, L1..L3, Cbar, C0..C2."""
        if name == "Q":
            return self.quartic
        if name in self.lines:
            return self.lines[name]
        if name in self.conics:
            return self.conics[name]
        known = ["Q", *sorted(self.lines), *sorted(self.conics)]
        raise PreconditionError(
            f"unknown curve {name!r}; expected one of {', '.join(known)}"
        )

    def section(self, name: str) -> Section:
        """Look up a section by name: O, or P0..P3."""
        if name == "O":
            return Section.zero(self.model)
        if name in self.sections:
            return self.sections[name]
        raise PreconditionError(
            f"unknown section {name!r}; expected one of O, {', '.join(SECTION_NAMES)}"
        )

    def arrangement(self, name: str) -> tuple[PlaneCurve, PlaneCurve, PlaneCurve]:
        """The three curves of a named arrangement."""
        if name not in ARRANGEMENTS:
            raise PreconditionError(
                f"unknown arrangement {name!r}; expected one of "
                f"{', '.join(ARRANGEMENT_NAMES)}"
            )
        first, second, third = ARRANGEMENTS[name]
        return (self.curve(first), self.curve(second), self.curve(third))


def _linear_form(row: tuple[FieldElem, FieldElem, FieldElem]) -> TriForm:
    return TriForm(1, {(1, 0, 0): row[0], (0, 1, 0): row[1], (0, 0, 1): row[2]})


def _apply_point(
    matrix: tuple[tuple[FieldElem, FieldElem, FieldElem], ...], point: PlanePoint
) -> PlanePoint:
    coords = tuple(
        sum((matrix[i][j] * point.coords[j] for j in range(3)), start=FieldElem())
        for i in range(3)
    )
    return PlanePoint(coords[0], coords[1], coords[2])


def build_worked_example(overrides: Mapping[str, str] | None = None) -> WorkedExample:
    """Parse and verify the example, optionally overriding raw fields.

    Overrides exist so tests can demonstrate that a tampered fixture is
    rejected with the name of the violated identity.
    """
    raw = dict(_RAW)
    if overrides:
        unknown = sorted(set(overrides) - set(raw))
        if unknown:
            raise PreconditionError(f"unknown fixture fields: {', '.join(unknown)}")
        raw.update(overrides)

    verified: list[str] = []

    def guarded(label: str, thunk: Callable[[], _T]) -> _T:
        try:
            value = thunk()
        except IntegrityError:
            raise
        except ContactConicsError as exc:
            raise IntegrityError(f"worked example: {label} ({exc})") from exc
        verified.append(label)
        return value

    def check(label: str, predicate: Callable[[], bool]) -> None:
        if not guarded(label, predicate):
            raise IntegrityError(f"worked example: {label}")

    conic = PlaneCurve(parse_triform(raw["conic"]))
    triangle = (
        PlaneCurve(parse_triform(raw["triangle_1"])),
        PlaneCurve(parse_triform(raw["triangle_2"])),
        PlaneCurve(parse_triform(raw["triangle_3"])),
    )
    tangent_line = PlaneCurve(parse_triform(raw["tangent_line"]))
    tangency_point = PlanePoint.from_triple(parse_point(raw["tangency_point"]))
    quartic_image = PlaneCurve(parse_triform(raw["quartic_image"]))
    conic_image = PlaneCurve(parse_triform(raw["conic_image"]))
    marked_point = PlanePoint.from_triple(parse_point(raw["marked_point"]))
    marked_tangent = PlaneCurve(parse_triform(raw["marked_tangent"]))
    frame = tuple(parse_point(raw[f"frame_row_{i}"]) for i in (1, 2, 3))
    quartic = PlaneCurve(TriForm.homogenize(parse_bipoly(raw["quartic_chart"]), 4))
    nodes = (
        PlanePoint.from_triple(parse_point(raw["node_1"])),
        PlanePoint.from_triple(parse_point(raw["node_2"])),
    )
    cusp = PlanePoint.from_triple(parse_point(raw["cusp"]))
    lines = {
        key: PlaneCurve(TriForm.homogenize(parse_bipoly(raw[field]), 1))
        for key, field in (("L1", "line_1"), ("L2", "line_2"), ("L3", "line_3"))
    }
    conics = {
        key: PlaneCurve(TriForm.homogenize(parse_bipoly(raw[field]), 2))
        for key, field in (
            ("Cbar", "conic_bar"),
            ("C0", "conic_0"),
            ("C1", "conic_1"),
            ("C2", "conic_2"),
        )
    }

    check(
        "the quadratic map sends the base conic to the quartic",
        lambda: cremona_transform(conic, triangle).form.is_proportional(
            quartic_image.form
        ),
    )
    check(
        "the quadratic map sends the tangent line to the contact conic",
        lambda: cremona_transform(tangent_line, triangle).form.is_proportional(
            conic_image.form
        ),
    )
    check(
        "the tangent line touches the base conic at the stated point",
        lambda: conic.contains(tangency_point)
        and tangent_line.contains(tangency_point)
        and intersection_multiplicity(conic, tangent_line, tangency_point) == 2,
    )
    check(
        "the marked point is the image of the tangency point",
        lambda: cremona_point(triangle, tangency_point) == marked_point,
    )
    check(
        "the marked point lies on the quartic and the contact conic",
        lambda: quartic_image.contains(marked_point)
        and conic_image.contains(marked_point),
    )
    check(
        "the contact conic is tangent to the quartic at the marked point",
        lambda: intersection_multiplicity(quartic_image, conic_image, marked_point)
        == 2,
    )
    check(
        "the marked tangent is the quartic's tangent line at the marked point",
        lambda: quartic_image.tangent_line(marked_point).form.is_proportional(
            marked_tangent.form
        ),
    )

    inverse_rows = guarded(
        "the frame is invertible", lambda: _matrix_inverse_3x3(frame)
    )
    images = tuple(_linear_form(tuple(row)) for row in inverse_rows)
    check(
        "the frame sends the marked point to the distinguished tangency",
        lambda: _apply_point(frame, marked_point) == PlanePoint(0, 1, 0),
    )
    check(
        "the frame sends the marked tangent to the line at infinity",
        lambda: marked_tangent.form.substitute(images).is_proportional(_Z_FORM),
    )
    check(
        "the frame image of the quartic matches the normalized chart",
        lambda: quartic_image.form.substitute(images).is_proportional(quartic.form),
    )
    check(
        "the frame image of the contact conic matches Cbar",
        lambda: conic_image.form.substitute(images).is_proportional(
            conics["Cbar"].form
        ),
    )

    check(
        "the normalized quartic has the stated nodes and cusp",
        lambda: set(quartic.singular_points())
        == {(nodes[0], NODE), (nodes[1], NODE), (cusp, CUSP)},
    )

    model = guarded(
        "the normalized quartic carries a Weierstrass chart",
        lambda: from_quartic(quartic),
    )

    sections: dict[str, Section] = {}
    for name in SECTION_NAMES:
        pair = parse_section(raw[f"section_{name}"])
        if pair is None:
            raise IntegrityError(f"worked example: section {name} is missing")
        sections[name] = guarded(
            f"section {name} satisfies the Weierstrass equation",
            lambda pair=pair: Section(model, pair[0], pair[1]),
        )

    check(
        "group relation P0 = P2 + (-P1)",
        lambda: sections["P2"] + (-sections["P1"]) == sections["P0"],
    )

    doubles: dict[str, Section] = {}
    for name in ("P0", "P1", "P2"):
        pair = parse_section(raw[f"double_{name}"])
        if pair is None:
            raise IntegrityError(f"worked example: doubling of {name} is missing")
        stated = guarded(
            f"the stated doubling of {name} lies on the surface",
            lambda pair=pair: Section(model, pair[0], pair[1]),
        )
        check(
            f"doubling {name} matches its stated coordinates",
            lambda name=name, stated=stated: (
                lambda computed: computed.x == stated.x
                and (computed.y == stated.y or computed.y == -stated.y)
            )(2 * sections[name]),
        )
        doubles[name] = stated

    for sec_name, line_name in (("P1", "L1"), ("P2", "L2"), ("P3", "L3")):
        check(
            f"companion line {line_name} is the image of section {sec_name}",
            lambda s=sec_name, l=line_name: section_to_plane_curve(
                sections[s]
            ).form.is_proportional(lines[l].form),
        )
    check(
        "contact conic Cbar is the image of section P0",
        lambda: section_to_plane_curve(sections["P0"]).form.is_proportional(
            conics["Cbar"].form
        ),
    )
    for j in ("0", "1", "2"):
        check(
            f"contact conic C{j} is the image of the doubled section of P{j}",
            lambda j=j: section_to_plane_curve(doubles[f"P{j}"]).form.is_proportional(
                conics[f"C{j}"].form
            ),
        )

    return WorkedExample(
        conic=conic,
        triangle=triangle,
        tangent_line=tangent_line,
        tangency_point=tangency_point,
        quartic_image=quartic_image,
        conic_image=conic_image,
        marked_point=marked_point,
        marked_tangent=marked_tangent,
        frame=frame,
        quartic=quartic,
        model=model,
        sections=MappingProxyType(sections),
        doubles=MappingProxyType(doubles),
        lines=MappingProxyType(lines),
        conics=MappingProxyType(conics),
        nodes=nodes,
        cusp=cusp,
        verified=tuple(verified),
    )


@lru_cache(maxsize=1)
def load_worked_example() -> WorkedExample:
    """Build and verify the bundled example once, then reuse it."""
    return build_worked_example()
