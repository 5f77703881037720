import json

import pytest

from qfcodes.cli import main, preset_config, run_config, validate_config
from qfcodes.errors import ConfigError
from qfcodes.presets import preset_names


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
    ],
)
def test_malformed_inputs_exit_one(tmp_path, capsys, argv, field):
    """Bad flag values and config keys end in exit 1 with a one-line message.

    A ``--config`` argument given as JSON names the keys that a small valid
    config gains before it is written to a file."""
    if "--config" in argv:
        i = argv.index("--config") + 1
        cfg = {
            "tower": {"p": 3, "m": 1, "m1": 2, "m2": 1},
            "form": {"frobenius": [{"coeff": 1, "i": 0}]},
            **json.loads(argv[i]),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [*argv[:i], str(path), *argv[i + 1:]]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"config field '{field}'" in err
    assert '"' not in err


def test_internal_key_error_propagates(monkeypatch):
    """A KeyError is a bug, not a usage error: main must not swallow it."""

    def broken(cfg, reference=None):
        raise KeyError("missing")

    monkeypatch.setattr("qfcodes.cli.run_config", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["code", "--preset", "example-3.1"])


def test_weight_data_budget_exits_one(capsys):
    code, out, err = _run(capsys, "code", "--preset", "example-3.1", "--budget", "10")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("qfcodes: resource error: message-space enumeration")
