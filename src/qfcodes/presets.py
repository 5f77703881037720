"""Named experiment presets: the six worked examples and descent fixtures.

A preset is a named config in the grammar of a ``--config`` file (tower,
form, variant, descent, tasks; see ``cli.validate_config``) and the
externally printed reference values a run compares with (parameters, weight
data, hierarchies).  ``qfcodes preset NAME`` runs the config's own tasks;
``--preset NAME`` loads the same config under another command.  Reference
hierarchies carry a set of suspect entries where the printed value is known
to disagree with both the closed form and brute force; runs report all three
and let brute force arbitrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["Preset", "PRESETS", "preset_names", "get_preset"]


@dataclass(frozen=True)
class Preset:
    name: str
    summary: str
    config: dict  # never changed: a run validates it into a new dict
    reference: dict


PRESETS: dict[str, Preset] = {}


def _add(p: Preset):
    PRESETS[p.name] = p


_add(
    Preset(
        name="example-3.1",
        summary="(q,m1,m2)=(3,4,3), Tr(x^2), homogeneous, rank 4",
        config={
            "tower": {"p": 3, "m": 1, "m1": 4, "m2": 3},
            "form": {"frobenius": [{"coeff": 1, "i": 0}]},
        },
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
        config={
            "tower": {"p": 5, "m": 1, "m1": 3, "m2": 2},
            "form": {
                "frobenius": [{"coeff": 1, "i": 0}],
                "trace_squares": [{"c": 3, "b": 1}],  # -(1/3) = 3 mod 5
            },
        },
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
        config={
            "tower": {"p": 3, "m": 2, "m1": 3, "m2": 2},
            "form": {"frobenius": [{"coeff": "g", "i": 0}]},
        },
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
        config={
            "tower": {"p": 5, "m": 1, "m1": 2, "m2": 3},
            "form": {
                "frobenius": [{"coeff": 1, "i": 0}],
                "trace_squares": [{"c": 2, "b": 1}],  # -(1/2) = 2 mod 5
            },
        },
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
        config={
            "tower": {"p": 3, "m": 1, "m1": 5, "m2": 3},
            "form": {"frobenius": [{"coeff": 2, "i": 2}, {"coeff": 1, "i": 0}]},
            "variant": "affine",
        },
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
        config={
            "tower": {"p": 3, "m": 1, "m1": 3, "m2": 4},
            "form": {"frobenius": [{"coeff": "g", "i": 0}]},
            "variant": "affine",
        },
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
        config={
            "tower": {"p": 5, "m": 2, "m1": 1, "m2": 1},
            "form": {"frobenius": [{"coeff": 1, "i": 0}]},
            "descent": {"N": 2},
            "tasks": ["wd", "cwe", "ghw", "descend"],
        },
        reference={
            "params": (624, 2, 600),
            "descended_params": {2: (7488, 4)},  # N -> (length, dimension)
        },
    )
)

_add(
    Preset(
        name="descent-7-2-1-1-3",
        summary="(p,m,m1,m2,N)=(7,2,1,1,3): q=49 admissible descent demo",
        config={
            "tower": {"p": 7, "m": 2, "m1": 1, "m2": 1},
            "form": {"frobenius": [{"coeff": 1, "i": 0}]},
            "descent": {"N": 3},
            "tasks": ["wd", "cwe", "ghw", "descend"],
        },
        reference={
            "params": (2400, 2, 2352),
            "descended_params": {3: (38400, 4)},
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

