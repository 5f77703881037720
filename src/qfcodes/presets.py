"""Named experiment presets: the six worked examples and descent fixtures.

Each preset pins a tower, a form, a variant, and the externally printed
reference values (parameters, weight data, hierarchies).  Reference
hierarchies carry a set of suspect entries where the printed value is known
to disagree with both the closed form and brute force; runs report all three
and let brute force arbitrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import CodeSpec, Variant
from .errors import ConfigError
from .fields import build_tower, elem_from_data
from .quadform import FrobeniusTerm, QuadraticForm, TraceSquareTerm

__all__ = ["Preset", "PRESETS", "preset_names", "get_preset", "build_spec"]


@dataclass(frozen=True)
class Preset:
    name: str
    summary: str
    tower: tuple[int, int, int, int]
    frobenius: tuple = ()  # ((coeff token, power), ...)
    trace_squares: tuple = ()  # ((scale token, coeff token), ...)
    variant: str = "homogeneous"
    descent_n: int | None = None
    tasks: tuple[str, ...] = ("wd", "cwe", "ghw")
    reference: dict = field(default_factory=dict)


PRESETS: dict[str, Preset] = {}


def _add(p: Preset):
    PRESETS[p.name] = p


_add(
    Preset(
        name="example-3.1",
        summary="(q,m1,m2)=(3,4,3), Tr(x^2), homogeneous, rank 4",
        tower=(3, 1, 4, 3),
        frobenius=((1, 0),),
        reference={
            "params": (2186, 4, 1458),
            "wd": {1458: 78, 1620: 2},
            "cwe": {(2186, 0, 0): 1, (728, 729, 729): 78, (566, 810, 810): 2},
            "hierarchy": {1: 1458, 2: 1944, 3: 2106, 4: 2166},
        },
    )
)

_add(
    Preset(
        name="example-3.2",
        summary="(q,m1,m2)=(5,3,2), Tr(x^2) - (1/3)Tr(x)^2, homogeneous, rank 2",
        tower=(5, 1, 3, 2),
        frobenius=((1, 0),),
        trace_squares=((3, 1),),  # -(1/3) = 3 mod 5
        reference={
            "params": (3124, 3, 2500),
            "wd": {2500: 120, 3000: 4},
            "cwe": {
                (3124, 0, 0, 0, 0): 1,
                (624, 625, 625, 625, 625): 120,
                (124, 750, 750, 750, 750): 4,
            },
            "hierarchy": {1: 2500, 2: 3000, 3: 3120},
        },
    )
)

_add(
    Preset(
        name="example-3.3",
        summary="(q,m1,m2)=(9,3,2), Tr(g x^2) with g primitive, homogeneous, rank 3",
        tower=(3, 2, 3, 2),
        frobenius=(("g", 0),),
        reference={
            "params": (59048, 3, 52488),
            "wd": {52488: 728},
            "cwe": {
                (59048,) + (0,) * 8: 1,
                (6560,) + (6561,) * 8: 720,
                (6560, 5832, 5832, 5832, 5832, 7290, 7290, 7290, 7290): 4,
                (6560, 7290, 7290, 7290, 7290, 5832, 5832, 5832, 5832): 4,
            },
            "cwe_eta_pattern": (1, 1, 1, 1, -1, -1, -1, -1),
            "hierarchy": {1: 52488, 2: 52830, 3: 58968},
            "suspect": (2,),
        },
    )
)

_add(
    Preset(
        name="example-3.4",
        summary="(q,m1,m2)=(5,2,3), Tr(x^2) - (1/2)Tr(x)^2, homogeneous, rank 1",
        tower=(5, 1, 2, 3),
        frobenius=((1, 0),),
        trace_squares=((2, 1),),  # -(1/2) = 2 mod 5
        reference={
            "params": (3124, 4, 2500),
            "wd": {2500: 624},
            "cwe": {
                (3124, 0, 0, 0, 0): 1,
                (624, 625, 625, 625, 625): 620,
                (624, 1250, 1250, 0, 0): 2,
                (624, 0, 0, 1250, 1250): 2,
            },
            "cwe_eta_pattern": (1, 1, -1, -1),
            "hierarchy": {1: 2500, 2: 3000, 3: 3100, 4: 3120},
        },
    )
)

_add(
    Preset(
        name="example-3.5",
        summary="(q,m1,m2)=(3,5,3), Tr(2x^10 + x^2), affine, rank 4",
        tower=(3, 1, 5, 3),
        frobenius=((2, 2), (1, 0)),
        variant="affine",
        reference={
            "params": (6561, 5, 4131),
            "wd": {6561: 2, 4374: 234, 4860: 2, 4131: 4},
            "cwe": {
                (6561, 0, 0): 1,
                (0, 6561, 0): 1,
                (0, 0, 6561): 1,
                (2187, 2187, 2187): 234,
                (1701, 2430, 2430): 2,
                (2430, 1701, 2430): 2,
                (2430, 2430, 1701): 2,
            },
            "hierarchy": {1: 4131, 2: 5741, 3: 6291, 4: 6471, 5: 6561},
            "suspect": (2,),
        },
    )
)

_add(
    Preset(
        name="example-3.6",
        summary="(q,m1,m2)=(3,3,4), Tr(g x^2) with g primitive, affine, rank 3",
        tower=(3, 1, 3, 4),
        frobenius=(("g", 0),),
        variant="affine",
        reference={
            "params": (2187, 6, 1215),
            "wd": {2187: 2, 1458: 722, 1701: 2, 1215: 2},
            "cwe": {
                (2187, 0, 0): 1,
                (0, 2187, 0): 1,
                (0, 0, 2187): 1,
                (729, 729, 729): 720,
                (729, 972, 486): 1,
                (486, 729, 972): 1,
                (972, 486, 729): 1,
                (729, 486, 972): 1,
                (972, 729, 486): 1,
                (486, 972, 729): 1,
            },
            "hierarchy": {1: 1215, 2: 1863, 3: 2079, 4: 2151, 5: 2175, 6: 2187},
        },
    )
)

_add(
    Preset(
        name="descent-5-2-1-1-2",
        summary="(p,m,m1,m2,N)=(5,2,1,1,2): q=25 descent fixture; N=2 fails "
        "the coprimality condition gcd(N,(q-1)/(p-1))=1, so construction "
        "reports a parameter error",
        tower=(5, 2, 1, 1),
        frobenius=((1, 0),),
        descent_n=2,
        tasks=("wd", "cwe", "ghw", "descend"),
        reference={
            "params": (624, 2, 600),
            "descended_params": (7488, 4),
        },
    )
)

_add(
    Preset(
        name="descent-7-2-1-1-3",
        summary="(p,m,m1,m2,N)=(7,2,1,1,3): q=49 admissible descent demo",
        tower=(7, 2, 1, 1),
        frobenius=((1, 0),),
        descent_n=3,
        tasks=("wd", "cwe", "ghw", "descend"),
        reference={
            "params": (2400, 2, 2352),
            "descended_params": (38400, 4),
        },
    )
)


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            "preset", f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def build_spec(preset: Preset) -> CodeSpec:
    tower = build_tower(*preset.tower)
    frobs = tuple(
        FrobeniusTerm(elem_from_data(tower.Fq1, tok), i) for tok, i in preset.frobenius
    )
    trsqs = tuple(
        TraceSquareTerm(elem_from_data(tower.Fq, c), elem_from_data(tower.Fq1, b))
        for c, b in preset.trace_squares
    )
    form = QuadraticForm(tower, frobenius_terms=frobs, trace_square_terms=trsqs)
    variant = Variant(preset.variant)
    return CodeSpec(analysis=form.analysis, variant=variant)
