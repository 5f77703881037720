"""Every qfcodes call the benchmark makes, in one place.

Workloads reach the library only through these names, and the traced run
wraps them by name.  Exhaustive weight data is spelled as the library spells
it today (``audit=True``); when that keyword goes away, only
``exhaustive_cwe`` and ``exhaustive_wd`` change.
"""

from __future__ import annotations

import contextlib
import io

from qfcodes import cli
from qfcodes.codes import (
    CodeSpec,
    Variant,
    ab_minimality,
    cwe_brute,
    cwe_predicted,
    griesmer_check,
    weight_distribution_brute,
    weight_distribution_predicted,
)
from qfcodes.cyclotomic import count_solutions, count_solutions_brute
from qfcodes.errors import BudgetError, ZeroFormError
from qfcodes.fields import Elem, build_tower
from qfcodes.ghw import gaussian_binomial
from qfcodes.presets import preset_names
from qfcodes.quadform import FrobeniusTerm, QuadraticForm, TraceSquareTerm

__all__ = [
    "BudgetError",
    "CodeSpec",
    "Elem",
    "FrobeniusTerm",
    "QuadraticForm",
    "TraceSquareTerm",
    "Variant",
    "ZeroFormError",
    "ab_minimality",
    "build_tower",
    "count_solutions",
    "count_solutions_brute",
    "cwe_predicted",
    "exhaustive_cwe",
    "exhaustive_wd",
    "gaussian_binomial",
    "griesmer_check",
    "make_form",
    "preset_names",
    "run_cli",
    "weight_distribution_predicted",
]


def exhaustive_cwe(spec: CodeSpec):
    """Complete weight enumerator over every message."""
    return cwe_brute(spec, audit=True)


def exhaustive_wd(spec: CodeSpec):
    """Weight distribution over every message."""
    return weight_distribution_brute(spec, audit=True)


def make_form(tower, frobenius_terms, trace_square_terms):
    """Construct and analyze a form and build its value histogram.

    Raises ``ZeroFormError`` for the zero function, like the library.
    """
    form = QuadraticForm(
        tower,
        frobenius_terms=tuple(frobenius_terms),
        trace_square_terms=tuple(trace_square_terms),
    )
    form.analysis
    form.value_histogram
    return form


def run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, standard output) of one ``qfcodes`` command, in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors exit this way
            code = e.code
    return code, out.getvalue()
