"""The one budget of a run: ``errors.budget`` sets it, ``errors.charge`` is
the only refusal."""

import re
from pathlib import Path

import pytest

import qfcodes
from qfcodes.errors import DEFAULT_BUDGET, BudgetError, budget, charge

SRC = Path(qfcodes.__file__).resolve().parent


def test_budget_blocks_nest_and_restore():
    with budget(5):
        with budget(7):
            charge(7, "inner")
        with pytest.raises(BudgetError, match="outer needs 6 steps, exceeding the budget of 5"):
            charge(6, "outer")
    with pytest.raises(KeyError), budget(3):
        raise KeyError  # the limit is restored on the way out of an error too
    charge(DEFAULT_BUDGET, "default")
    with pytest.raises(BudgetError, match=f"exceeding the budget of {DEFAULT_BUDGET}"):
        charge(DEFAULT_BUDGET + 1, "default")


def test_every_refusal_goes_through_charge():
    """No module but ``errors`` raises ``BudgetError`` or reads
    ``DEFAULT_BUDGET``, except the config default in ``cli``: a refusal
    hard-wired to the default cannot come back unnoticed."""
    raises, defaults = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            where = f"{path.name}:{n}: {line.strip()}"
            if re.search(r"raise\s+BudgetError", line):
                raises.append(where)
            if "DEFAULT_BUDGET" in line and line.strip() != "DEFAULT_BUDGET,":
                defaults.append(where)
    assert raises == []
    assert len(defaults) == 1 and defaults[0].startswith("cli.py:"), defaults
    assert 'data.get("budget", DEFAULT_BUDGET)' in defaults[0]
