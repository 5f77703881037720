import copy
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

import qfcodes
from qfcodes import Variant
from qfcodes.cli import (build_parser, main, preset_config, run_config, spec_from_config,
                         validate_config)
from qfcodes.errors import ConfigError
from qfcodes.presets import PRESETS, preset_names

from conftest import run_fresh


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_preset_list(capsys):
    code, out, _ = _run(capsys, "preset", "--list")
    assert code == 0
    names = preset_names()
    assert len(names) >= 7
    for name in names:
        assert name in out
    assert "example-3.5" in out and "example-3.2" in out


def test_preset_example_31_exit_zero(capsys):
    code, out, _ = _run(capsys, "preset", "example-3.1")
    assert code == 0
    assert "[2186, 4, 1458]_3" in out
    assert "all routes agree" in out


def test_preset_example_33_exit_two(capsys):
    code, out, _ = _run(capsys, "preset", "example-3.3")
    assert code == 2
    assert "52830" in out and "58320" in out  # three-way table
    assert "DISAGREEMENTS" in out


def test_preset_example_36_hierarchy(capsys):
    code, out, _ = _run(capsys, "preset", "example-3.6")
    assert code == 0
    for d in (1215, 1863, 2079, 2151, 2175, 2187):
        assert str(d) in out


def test_inadmissible_descent_preset(capsys):
    code, out, _ = _run(capsys, "preset", "descent-5-2-1-1-2")
    assert code == 1
    assert "coprime" in out


def test_admissible_descent_preset(capsys):
    code, out, _ = _run(capsys, "preset", "descent-7-2-1-1-3")
    assert code == 0
    assert "descended [38400, 4]_7" in out


def test_json_reports_byte_identical(capsys):
    _, out1, _ = _run(capsys, "preset", "example-3.2", "--format", "json")
    _, out2, _ = _run(capsys, "preset", "example-3.2", "--format", "json")
    assert out1 == out2
    bundle = json.loads(out1)
    assert bundle["wd"]["params"] == [3124, 3, 2500, 5]
    assert bundle["disagreements"] == []


def test_csv_format(capsys):
    code, out, _ = _run(capsys, "ghw", "--preset", "example-3.1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert any(line.startswith("ghw.rows[0].brute,1458") for line in out.splitlines())


def test_field_info(capsys):
    code, out, _ = _run(
        capsys, "field-info", "-p", "3", "-m", "2", "--m1", "3", "--m2", "2",
        "--format", "json",
    )
    assert code == 0
    info = json.loads(out)["field_info"]
    assert info["modulus_Fq"] == [1, 0, 1]


def test_verify_subcommand(capsys):
    code, out, _ = _run(capsys, "verify", "lemma-basic", "--preset", "example-3.1")
    assert code == 0
    assert "verify lemma_basic: ok" in out


def test_verify_runs_only_the_requested_suite(capsys):
    """``verify <suite>`` is charged for that suite alone: on example-3.2 at a
    budget of 200 the lemma suites run (GF(5)'s tables are 40 steps, the
    stream of Q over F_125 is 125), and only counts, whose value profile
    costs 300 steps, is refused; at 100 lemma-gauss's stream is refused."""
    for suite in ("lemma-basic", "lemma-gauss"):
        code, out, err = _run(capsys, "verify", suite, "--preset", "example-3.2", "--budget", "200")
        assert (code, err) == (0, ""), suite
        assert f"verify {suite.replace('-', '_')}: ok" in out.splitlines()
        assert "verify counts" not in out
    for suite in ("counts", "all"):
        code, out, err = _run(capsys, "verify", suite, "--preset", "example-3.2", "--budget", "200")
        assert (code, out) == (1, "")
        assert err == (
            "qfcodes: resource error: message-space enumeration needs 300 steps, "
            "exceeding the budget of 200\n"
        )
    code, out, err = _run(capsys, "verify", "lemma-gauss", "--preset", "example-3.2", "--budget", "100")
    assert (code, out) == (1, "")
    assert err == (
        "qfcodes: resource error: the value stream of Q needs 125 steps, "
        "exceeding the budget of 100\n"
    )


def test_qf_subcommand(capsys):
    code, out, _ = _run(capsys, "qf", "--preset", "example-3.4")
    assert code == 0
    assert "rank=1" in out


def test_usage_errors_exit_one(capsys):
    code, _, err = _run(capsys, "code", "--preset", "no-such-preset")
    assert code == 1
    assert "unknown preset" in err
    code, _, err = _run(capsys, "code")
    assert code == 1


def _exit_and_bytes(capsys, argv):
    """Exit code (returned, or raised by the parser), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_and_reused(capsys):
    """After a usage error, the kept parser gives the same exit codes and bytes
    as a fresh parser for each call."""
    assert build_parser() is build_parser()
    argvs = (["preset", "--format", "xml"], ["preset", "example-3.1", "--format", "json"])
    reused = [_exit_and_bytes(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_exit_and_bytes(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0]
    assert "invalid choice: 'xml'" in reused[0][2]


def test_config_file_flow(tmp_path, capsys):
    cfg = {
        "tower": {"p": 3, "m": 1, "m1": 2, "m2": 1},
        "form": {"frobenius": [{"coeff": 1, "i": 0}]},
        "variant": "homogeneous",
        "tasks": ["wd", "ghw"],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = _run(capsys, "code", "--config", str(path))
    assert code == 0
    assert "[26, 2," in out


def test_config_tagged_term_records(tmp_path, capsys):
    """Forms may be given as a single list of kind-tagged term records."""
    cfg = {
        "tower": {"p": 5, "m": 1, "m1": 3, "m2": 2},
        "form": {
            "terms": [
                {"kind": "frob", "coeff": 1, "i": 0},
                {"kind": "trsq", "c": 3, "b": 1},
            ]
        },
        "tasks": ["wd"],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = _run(capsys, "code", "--config", str(path))
    assert code == 0
    assert "[3124, 3, 2500]_5" in out
    bad = dict(cfg, form={"terms": [{"kind": "what"}]})
    with pytest.raises(ConfigError, match=r"terms\[0\].kind"):
        validate_config(bad)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = {
        "tower": {"p": 3, "m": 1, "m1": 2, "m2": 1, "extra": 1},
        "form": {"frobenius": [{"coeff": 1, "i": 0}]},
    }
    with pytest.raises(ConfigError, match="tower.extra"):
        validate_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = _run(capsys, "code", "--config", str(path))
    assert code == 1
    assert "tower.extra" in err


def test_config_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, "code", "--config", str(path))
    assert code == 1
    assert "line 1" in err


def test_config_rejects_bad_task():
    with pytest.raises(ConfigError, match="tasks"):
        validate_config(
            {
                "tower": {"p": 3, "m": 1, "m1": 2, "m2": 1},
                "form": {"frobenius": [{"coeff": 1, "i": 0}]},
                "tasks": ["nope"],
            }
        )


def test_run_config_bundles_reference():
    cfg, reference = preset_config("example-3.2")
    bundle, code = run_config(cfg, reference)
    assert code == 0
    assert bundle["wd"]["reference_agrees"]
    assert bundle["cwe"]["reference_agrees"]
    assert bundle["ghw"]["resolved"] == [2500, 3000, 3120]


def test_descended_params_are_compared_with_the_reference(capsys, monkeypatch):
    """A descent preset's reference (length, dimension) at its own N is
    checked: a forged one exits 2 with one disagreement naming it."""
    preset = PRESETS["descent-7-2-1-1-3"]
    forged = {**preset.reference, "descended_params": {3: (38400, 5)}}
    monkeypatch.setitem(PRESETS, preset.name, dataclasses.replace(preset, reference=forged))
    code, out, _ = _run(capsys, "preset", preset.name, "--format", "json")
    assert code == 2
    assert json.loads(out)["disagreements"] == ["descended code parameters differ from reference"]


@pytest.mark.parametrize("name", preset_names())
def test_suspect_entries_are_the_rows_that_disagree(name):
    """The hierarchy rows of a preset that disagree are exactly its
    reference's suspect entries: r = 2 on examples 3.3 and 3.5, none elsewhere."""
    cfg, reference = preset_config(name)
    bundle, _ = run_config({**cfg, "tasks": ["ghw"]}, reference)
    wrong = tuple(row["r"] for row in bundle["ghw"]["rows"] if not row["agree"])
    assert wrong == reference.get("suspect", ())
    assert wrong == ((2,) if name in ("example-3.3", "example-3.5") else ())


def test_flags_leave_the_preset_config_unchanged(capsys):
    """A flag laid over a preset changes that run only: after ``descend
    --N 1`` on a preset, the preset's own report in the same process equals
    a fresh process's (the benchmark runs every preset job in one process)."""
    name = "descent-7-2-1-1-3"
    before = copy.deepcopy(PRESETS[name].config)
    assert _run(capsys, "descend", "--preset", name, "--N", "1")[0] == 0
    argv = ["preset", name, "--format", "json"]
    fresh = subprocess.run(
        [sys.executable, "-m", "qfcodes.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(qfcodes.__file__).resolve().parents[1])},
        timeout=120,
    )
    assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert PRESETS[name].config == before


def test_descend_cli_flags(capsys):
    code, out, _ = _run(
        capsys, "descend", "--preset", "descent-7-2-1-1-3", "--ghw-r-max", "2"
    )
    assert code == 0
    assert "r=2" in out and "r=3" not in out


def test_theta_override_flag(capsys):
    # theta = g^3 has order 16 in F_49*, same as the default g^N
    code, out, _ = _run(
        capsys,
        "descend",
        "--preset",
        "descent-7-2-1-1-3",
        "--theta-override",
        '"g^3"',
        "--ghw-r-max",
        "1",
    )
    assert code == 0
    assert "column weight=14" in out


@pytest.mark.parametrize(
    "argv,field",
    [
        (["ghw", "--preset", "example-3.1", "--budget", "0"], "budget"),
        (["preset", "example-3.1", "--budget", "-5"], "budget"),
        (["descend", "--preset", "descent-7-2-1-1-3", "--theta-override", "notjson"],
         "descent.theta"),
        (["descend", "--preset", "descent-7-2-1-1-3", "--theta-override", "[1,2,3]"],
         "descent.theta"),
        (["ghw", "--config", '{"threads": 2}'], "threads"),
        (["ghw", "--preset", "example-3.1", "--r-max", "0"], "ghw_r_max"),
        (["descend", "--preset", "descent-7-2-1-1-3", "--ghw-r-max", "0"], "descent.r_max"),
        (["descend", "--preset", "descent-7-2-1-1-3", "--N", "0"], "descent.N"),
        (["descend", "--preset", "example-3.1", "--N", "0"], "descent.N"),
        (["descend", "--config", '{"descent": {"N": 3, "r_max": "x"}}'], "descent.r_max"),
        (["descend", "--config", '{"descent": {"N": 3, "r_max": 0}}'], "descent.r_max"),
        (["descend", "--config", '{"descent": {"N": 3, "r_max": -1}}'], "descent.r_max"),
        (["code", "--config", '{"audit": true}'], "audit"),
        (["code", "--preset", "nosuch"], "preset"),
        (["code", "--config", '{"form": {"gram": 5}}'], "form.gram"),
        (["code", "--config", '{"form": {"gram": [5]}}'], "form.gram"),
        (["code", "--config", '{"form": {"gram": [[0, 0], [0, 0]]}}'], "form"),
        (["code", "--config", '{"tower": {"p": 3, "m": true, "m1": 2, "m2": 1}}'], "tower.m"),
        (["code", "--config", '{"form": {"frobenius": [{"i": true}]}}'], "form.frobenius[0].i"),
        (["code", "--config", '{"form": {"terms": [{"kind": "frob", "i": false}]}}'],
         "form.terms[0].i"),
        (["descend", "--config", '{"descent": {"N": true}}'], "descent.N"),
        (["descend", "--config", '{"descent": {"N": 3, "r_max": true}}'], "descent.r_max"),
        (["ghw", "--config", '{"ghw_r_max": true}'], "ghw_r_max"),
        (["code", "--config", '{"budget": true}'], "budget"),
        (["code", "--config", '{"form": {"terms": [{"kind": ["frob"]}]}}'], "form.terms[0].kind"),
        (["code", "--config", '{"form": {"frobenius": [{"coeff": "g^", "i": 0}]}}'], "form"),
        (["code", "--config", '{"form": {"frobenius": [{"coeff": "g^1.5", "i": 0}]}}'], "form"),
        (["descend", "--preset", "descent-7-2-1-1-3", "--theta-override", '"g^x"'],
         "descent.theta"),
        (["code", "--config", '{"tower": {"p": 3, "m": 1, "m1": 0, "m2": 1}}'], "tower.m1"),
        (["code", "--config", '{"tower": {"p": 4, "m": 1, "m1": 2, "m2": 1}}'], "tower"),
        (["code", "--config", '{"tower": {"p": -3, "m": 1, "m1": 2, "m2": 1}}'], "tower.p"),
        (["code", "--config", '{"tower": {"p": 3, "m": 1, "m1": 40, "m2": 1}}'], "tower"),
        (["field-info", "-p", "3", "--m1", "0"], "tower.m1"),
        (["field-info", "-p", "3", "-m", "0", "--m1", "1"], "tower.m"),
        (["field-info", "-p", "9", "--m1", "1"], "tower"),
        (["field-info", "-p", "100000000", "--m1", "1"], "tower"),
        (["code", "--config",
          '{"form": {"frobenius": [{"coeff": 1, "i": 0}], "gram": [[1, 0], [0, 0]]}}'], "form"),
        (["code", "--config", '{"form": {"trace_squares": [{}], "gram": [[1, 0], [0, 0]]}}'],
         "form"),
        (["code", "--config",
          '{"form": {"terms": [{"kind": "trsq"}], "gram": [[0, 1], [1, 0]]}}'], "form"),
        (["code", "--config", '{"form": {"frobenius": 5}}'], "form.frobenius"),
        (["code", "--config", '{"form": {"terms": true}}'], "form.terms"),
        (["code", "--config", '{"form": {"trace_squares": 3.5}}'], "form.trace_squares"),
        (["code", "--config", '{"form": {"frobenius": {"coeff": 1, "i": 0}}}'],
         "form.frobenius"),
        (["code", "--config", '{"comment": "\u00e9"}'], ""),
    ],
)
def test_malformed_inputs_exit_one(tmp_path, capsys, argv, field):
    """Bad flag values and config keys end in exit 1 with a one-line message.

    A ``--config`` argument given as JSON names the keys that a small valid
    config gains before it is written to a file, in Latin-1, so a non-ASCII
    character makes a file that is not UTF-8.  A malformed "g^k" token is
    named as one."""
    bad_token = any("g^" in arg for arg in argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        cfg = {
            "tower": {"p": 3, "m": 1, "m1": 2, "m2": 1},
            "form": {"frobenius": [{"coeff": 1, "i": 0}]},
            **json.loads(argv[i]),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg, ensure_ascii=False), encoding="latin-1")
        argv = [*argv[:i], str(path), *argv[i + 1:]]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"config field '{field}'" in err
    assert '"' not in err
    assert ("unrecognized element token 'g^" in err) == bad_token


@pytest.mark.parametrize(
    "form,line",
    [
        ({"frobenius": [{"coeff": 1, "i": 0}], "gram": [[1, 0], [0, 0]]},
         "config field 'form': supply either terms or a Gram matrix, not both"),
        ({"terms": 5}, "config field 'form.terms': must be a list"),
        ({"frobenius": {"coeff": 1, "i": 0}}, "config field 'form.frobenius': must be a list"),
    ],
)
def test_form_config_errors_name_the_rule(tmp_path, capsys, form, line):
    """A Gram matrix beside terms is refused, not silently preferred, and a
    term list that is not a list is named as such."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"tower": {"p": 3, "m": 1, "m1": 2, "m2": 1}, "form": form}))
    assert _run(capsys, "code", "--config", str(path)) == (1, "", f"qfcodes: error: {line}\n")


def test_config_that_is_not_utf8_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"comment": "\xe9"}')
    code, out, err = _run(capsys, "code", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("qfcodes: error: config field '': cannot read config: 'utf-8' codec")


@pytest.mark.parametrize("name", ["example-3.6", "descent-7-2-1-1-3"])
def test_no_production_path_builds_the_generator_matrix(capsys, monkeypatch, name):
    """With the generator matrix made to raise and the quotient cache empty,
    a preset run prints the same bytes, with the same exit code; every
    multiset it builds has at most q**d cells (d = 2 affine, 1 homogeneous),
    none is over the message space F^k."""
    from qfcodes import ghw

    def refuse(*args, **kwargs):
        raise AssertionError("the generator matrix is a test oracle")

    def run():
        ghw._quotient.cache_clear()
        return _run(capsys, "preset", name, "--format", "json")

    cells, init = [], ghw._Multiset.__init__

    def spy(self, F, k, mu):
        init(self, F, k, mu)
        cells.append(self.mu.size)

    with monkeypatch.context() as patch:
        patch.setattr(ghw, "generator_matrix", refuse)
        patch.setattr(ghw._Multiset, "__init__", spy)
        guarded = run()
    assert guarded == run()
    spec = spec_from_config(preset_config(name)[0])
    assert cells and max(cells) <= spec.tower.q ** (2 if spec.variant is Variant.AFFINE else 1)


def test_verify_counts_checks_every_cell(capsys, monkeypatch):
    """A closed count that is off by one at the single cell
    (a, b, beta) = (1, 0, 0) of example-3.3 is caught: the check reads every
    (a, class of b, beta), not a sample of them."""
    import qfcodes.cli

    real = qfcodes.cli.closed_profile

    def off_by_one(an):
        C = real(an).copy()
        C[1, 0, 0] += 1
        return C

    monkeypatch.setattr(qfcodes.cli, "closed_profile", off_by_one)
    code, out, _ = _run(capsys, "verify", "counts", "--preset", "example-3.3")
    assert code == 2
    assert "verify counts: FAILED" in out and "verify counts: brute != closed" in out


def test_descend_checks_every_c(capsys, monkeypatch):
    """A batched identity check that fails in the rows c = 2 alone turns the
    descent-7 report to identities_ok: false, exit 2: every c in F_q* is
    checked."""
    import qfcodes.cli

    real = qfcodes.cli.char_identity_checks

    def fail_at_two(params, c, a):
        lhs, rhs = real(params, c, a)
        rhs = rhs.copy()
        rhs[c == 2, 0, 0] += 1  # the plain right side, at c = 2 only
        return lhs, rhs

    monkeypatch.setattr(qfcodes.cli, "char_identity_checks", fail_at_two)
    code, out, _ = _run(capsys, "preset", "descent-7-2-1-1-3", "--format", "json")
    bundle = json.loads(out)
    assert code == 2
    assert bundle["descend"]["identities_ok"] is False
    assert "coset character identities failed" in bundle["disagreements"]


@pytest.mark.parametrize("suite,name", [
    ("lemma_basic", "eta_twisted_sums_brute"),
    ("lemma_gauss", "qf_exp_sums_brute"),
])
def test_verify_lemmas_check_every_cell(suite, name, capsys, monkeypatch):
    """One brute trace count off by one, in the last row of the eta-sum or
    the qf-sum array of example-3.1, fails that suite alone with exit 2: the
    suite compares every cell of the array, not a sample of them."""
    import qfcodes.cli

    real = getattr(qfcodes.cli, name)

    def off_by_one(*args):
        counts = real(*args).copy()
        counts[-1, 0] += 1
        return counts

    monkeypatch.setattr(qfcodes.cli, name, off_by_one)
    code, out, _ = _run(capsys, "verify", "all", "--preset", "example-3.1", "--format", "json")
    bundle = json.loads(out)
    assert code == 2
    assert bundle["disagreements"] == [f"verify {suite}: brute != closed"]
    assert [k for k, ok in bundle["verify"].items() if not ok] == [suite]


def test_internal_key_error_propagates(monkeypatch):
    """A KeyError is a bug, not a usage error: main must not swallow it."""

    def broken(cfg, reference=None, suites=()):
        raise KeyError("missing")

    monkeypatch.setattr("qfcodes.cli.run_config", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["code", "--preset", "example-3.1"])


def test_internal_assertion_in_form_analysis_propagates(monkeypatch):
    """An AssertionError in the form analysis is a bug, not a bad config."""

    def broken(form):
        raise AssertionError("broken analysis")

    monkeypatch.setattr("qfcodes.quadform.analyze", broken)
    with pytest.raises(AssertionError, match="broken analysis"):
        main(["qf", "--preset", "example-3.1"])


def test_weight_data_budget_exits_one(capsys):
    """30 steps cover GF(3)'s tables (24), not the value profile (99)."""
    code, out, err = _run(capsys, "code", "--preset", "example-3.1", "--budget", "30")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("qfcodes: resource error: message-space enumeration")


def test_generator_token_builds_no_table_of_f_3_16():
    """The token "g" is the generator search and column 0 of a power of M_g,
    so Tr(g x**2) over F_{3^16} runs WD, CWE and the hierarchy with exit 0,
    brute == closed, and no F_{3^16} table (about 10^9 cells, past the
    budget) is built: the streamed value histogram stays far below one."""
    cfg = validate_config({"tower": {"p": 3, "m": 1, "m1": 16, "m2": 1},
                           "form": {"frobenius": [{"coeff": "g", "i": 0}]}})
    tracemalloc.start()
    try:
        bundle, code = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and bundle["disagreements"] == []
    assert bundle["wd"]["agree"] and bundle["cwe"]["predicted_agrees"]
    assert all(row["brute"] == row["closed"] for row in bundle["ghw"]["rows"])
    assert peak < 32 * 2**20


@pytest.mark.parametrize("name", ["example-3.3", "example-3.6"])
def test_generator_token_builds_no_table_of_f_q_m1(name, monkeypatch):
    """Building a preset whose coefficient is "g" runs no table build of
    F_{q^m1} (F_729, F_27): fresh fields, with a spy on ``_finish_init``."""
    from qfcodes import cli, fields

    monkeypatch.setattr(fields, "prime_field", lru_cache(fields.prime_field.__wrapped__))
    monkeypatch.setattr(fields, "_extension_field", lru_cache(fields._extension_field.__wrapped__))
    monkeypatch.setattr(cli, "build_tower", fields.build_tower.__wrapped__)
    built, real = [], fields.FiniteField._finish_init

    def spy(self):
        built.append(self.order)
        real(self)

    monkeypatch.setattr(fields.FiniteField, "_finish_init", spy)
    cfg, _ = preset_config(name)
    spec = cli.spec_from_config(cfg)
    assert spec.tower.Fq.order in built and spec.tower.Fq1.order not in built


def test_oversized_value_stream_is_refused_before_allocation(tmp_path, capsys):
    """Weight data over F_{3^17} would stream 3^17 values of Q: refused with
    exit 1 after the analysis, before any block is made."""
    cfg = {"tower": {"p": 3, "m": 1, "m1": 17, "m2": 1},
           "form": {"frobenius": [{"coeff": 1, "i": 0}]}, "tasks": ["wd"]}
    path = tmp_path / "f317.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "code", "--config", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == (
        "qfcodes: resource error: the value stream of Q needs 129140163 steps, "
        "exceeding the budget of 100000000\n"
    )
    assert peak < 10 * 2**20


_STREAM_BUDGET_REACH = """
import json, sys
from qfcodes.cli import run_config, validate_config
from qfcodes.errors import BudgetError
from qfcodes.quadform import QuadraticForm
raw = {"tower": {"p": 3, "m": 1, "m1": 17, "m2": 1}, "variant": "affine",
       "form": {"frobenius": [{"coeff": 1, "i": 0}]},
       "tasks": ["wd", "cwe", "ghw", "verify-lemmas"]}
try:
    run_config(validate_config(raw))
    refusal = None
except BudgetError as e:
    refusal = str(e)
streams, real = [], QuadraticForm._value_blocks
QuadraticForm._value_blocks = lambda self: streams.append(1) or real(self)
bundle, code = run_config(validate_config({**raw, "budget": 200000000}))
print(json.dumps({"refusal": refusal, "code": code, "streams": len(streams), "bundle": bundle}))
"""


@pytest.mark.reach
def test_config_budget_reaches_the_value_stream():
    """The config's budget caps the value stream too: affine Tr(x**2) over
    F_{3^17} x F_3 (3^17 values of Q) is refused at the default budget with
    the one-line stream message, and with "budget": 2e8 WD, CWE, every d_r
    and every verify suite agree with the closed forms, from one stream, in
    a fresh process."""
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _STREAM_BUDGET_REACH], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["refusal"] == (
        "the value stream of Q needs 129140163 steps, exceeding the budget of 100000000"
    )
    bundle = run["bundle"]
    assert (run["code"], run["streams"], bundle["disagreements"]) == (0, 1, [])
    assert bundle["wd"]["agree"] and bundle["cwe"]["predicted_agrees"]
    rows = bundle["ghw"]["rows"]
    assert [row["r"] for row in rows] == [1, 2, 3]
    assert all(row["brute"] == row["closed"] for row in rows), rows
    assert bundle["verify"] == {"lemma_basic": True, "lemma_gauss": True, "counts": True}


@pytest.mark.reach
def test_generator_token_reaches_f_3_37(tmp_path):
    """A "g" coefficient on (3,1,37,1) needs the primes of 3^37 - 1 =
    2 * 13097927 * 17189128703, which Pollard-Brent finds inside the default
    budget (trial division alone was charged 671 031 970 steps and refused):
    ``qf`` exits 0 in a fresh process in under 2 s."""
    cfg = {"tower": {"p": 3, "m": 1, "m1": 37, "m2": 1},
           "form": {"frobenius": [{"coeff": "g", "i": 0}]}}
    path = tmp_path / "g37.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qfcodes.cli", "qf", "--config", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert "all routes agree" in proc.stdout and seconds < 2, (seconds, proc.stdout)


def test_ghw_reaches_k_20(tmp_path, capsys):
    """The affine Tr(x**2) code on (3,1,2,18) has k = 20 over F_3: every
    d_r comes from the quotient F_3^2, brute == closed on all 20 rows."""
    cfg = {"tower": {"p": 3, "m": 1, "m1": 2, "m2": 18},
           "form": {"frobenius": [{"coeff": 1, "i": 0}]}, "variant": "affine"}
    path = tmp_path / "k20.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = _run(capsys, "ghw", "--config", str(path), "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)["ghw"]["rows"]
    assert [row["r"] for row in rows] == list(range(1, 21))
    assert all(row["brute"] == row["closed"] for row in rows), rows


def _affine_tr_x2(tmp_path, m2):
    """Config path of the affine Tr(x**2) code on (3, 1, 2, m2)."""
    cfg = {"tower": {"p": 3, "m": 1, "m1": 2, "m2": m2},
           "form": {"frobenius": [{"coeff": 1, "i": 0}]}, "variant": "affine"}
    path = tmp_path / f"tr_x2_{m2}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_weight_data_reaches_f_3_16_without_its_tables(tmp_path, capsys, monkeypatch):
    """On (3,1,2,16) code, cwe, ghw and verify all exit 0 with brute == closed
    everywhere, and neither F_{3^16} nor F_9 gets tables: F_{q^m2} is read
    through its trace matrix, F_{q^m1} through its F_p algebra."""
    import dataclasses

    import qfcodes.cli
    from qfcodes import build_tower, fields

    cached = build_tower(3, 1, 2, 16)
    fresh = {name: fields.ExtField(F.base, F.degree, modulus=F.modulus)
             for name, F in (("Fq1", cached.Fq1), ("Fq2", cached.Fq2))}
    built, finish = [], fields.FiniteField._finish_init

    def recorded(field):
        built.append(field)
        finish(field)

    monkeypatch.setattr(fields.FiniteField, "_finish_init", recorded)
    monkeypatch.setattr(qfcodes.cli, "build_tower", lambda **_: dataclasses.replace(cached, **fresh))
    path = _affine_tr_x2(tmp_path, 16)
    bundles = {}
    for argv in (["code"], ["cwe"], ["ghw"], ["verify", "all"]):
        code, out, err = _run(capsys, *argv, "--config", path, "--format", "json")
        assert code == 0 and err == "", (argv, err)
        bundles[argv[0]] = json.loads(out)
        assert bundles[argv[0]]["disagreements"] == [], argv
    rows = bundles["ghw"]["ghw"]["rows"]
    assert len(rows) == 18 and all(row["brute"] == row["closed"] for row in rows)
    assert bundles["verify"]["verify"] == {"counts": True, "lemma_basic": True, "lemma_gauss": True}
    assert not any(F is G for F in built for G in fresh.values())


def test_int64_counts_are_refused_at_m_40(tmp_path, capsys):
    """On (3,1,2,38) the count q**M = 3**40 at (a, b, beta) = (0, 0, 0) does
    not fit in int64: weight data and counts exit 1 on one line, before the
    value profile is built, never with a wrapped count."""
    path = _affine_tr_x2(tmp_path, 38)
    for argv in (["cwe"], ["verify", "counts"]):
        code, out, err = _run(capsys, *argv, "--config", path)
        assert code == 1 and out == ""
        assert err == "qfcodes: error: q**M = 3**40 >= 2**63: int64 counts would wrap\n"


def test_cli_import_leaves_out_fractions_and_decimal():
    """The closed forms are exact in integers: a fresh ``import qfcodes.cli``
    loads neither ``fractions`` nor ``decimal`` (about 3 ms of start-up)."""
    src = str(Path(qfcodes.__file__).resolve().parents[1])
    probe = "import sys, qfcodes.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_preset_builds_each_extension_field_once(capsys, monkeypatch):
    """A field is its (base, degree): every preset and its ``verify all``, run
    from fresh caches, construct each extension field once, although F_25
    is F_q of one preset's tower and F_{q^m1} of another's."""
    from qfcodes import cli, fields

    monkeypatch.setattr(fields, "prime_field", lru_cache(fields.prime_field.__wrapped__))
    monkeypatch.setattr(fields, "_extension_field", lru_cache(fields._extension_field.__wrapped__))
    monkeypatch.setattr(cli, "build_tower", fields.build_tower.__wrapped__)
    built, init = [], fields.ExtField.__init__

    def spy(self, base, degree, *args, **kwargs):
        built.append((base.order, degree))
        init(self, base, degree, *args, **kwargs)

    monkeypatch.setattr(fields.ExtField, "__init__", spy)
    for name in preset_names():
        main(["preset", name, "--format", "json"])
        main(["verify", "all", "--preset", name, "--format", "json"])
    capsys.readouterr()
    assert sorted(built) == sorted(set(built)) and (5, 2) in built, built


def test_no_run_imports_numpy_ma():
    """Every preset and its ``verify all`` run in a fresh process without
    importing ``numpy.ma``, which a plain ``np.unique`` imports on its first call."""
    script = (
        "import contextlib, io, json, sys\n"
        "from qfcodes.cli import main\n"
        "from qfcodes.presets import preset_names\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for name in preset_names():\n"
        "        main(['preset', name]), main(['verify', 'all', '--preset', name])\n"
        "print(json.dumps({'ma': 'numpy.ma' in sys.modules}))\n"
    )
    assert run_fresh(script)["ma"] is False
