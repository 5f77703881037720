"""Command-line front end.

Subcommands: field-info, qf, code, cwe, ghw, descend, verify, preset.
Experiments come from named presets or JSON config files; element tokens in
configs are prime constants, "g"/"g^k" powers of the canonical generator, or
nested coefficient lists against the pinned moduli (see ``field-info``).

Exit codes: 0 all routes agree, 2 some brute/closed/reference values
disagree (a three-way table is printed), 1 usage or resource errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .codes import (
    CodeSpec,
    Variant,
    ab_minimality,
    apply_symbol_permutation,
    cwe_brute,
    cwe_predicted,
    eta_matching_permutation,
    griesmer_check,
    value_profile,
    weight_distribution_brute,
    weight_distribution_predicted,
)
from .cyclotomic import (  # perfbench/tracing.py patches the scalar sums here
    CycInt,
    closed_profile,
    count_solutions,  # noqa: F401
    count_solutions_brute,  # noqa: F401
    eta_twisted_sum_brute,  # noqa: F401
    eta_twisted_sum_closed,  # noqa: F401
    eta_twisted_sums_brute,
    eta_twisted_sums_closed,
    gauss_sum,
    pstar,
    qf_exp_sum_brute,  # noqa: F401
    qf_exp_sum_closed,  # noqa: F401
    qf_exp_sums_brute,
    qf_exp_sums_closed,
    sums_agree,
)
from .descent import (
    char_identity_check,  # noqa: F401
    char_identity_checks,
    descend,
    descended_hierarchy,
    descended_wd,
    make_descent,
    orbit_check,
    psi_weight_table,
)
from .errors import (
    BudgetError,
    ConfigError,
    DEFAULT_BUDGET,
    MixedFieldError,
    ParameterError,
    budget,
)
from .fields import Elem, build_tower, elem_from_data, elem_to_data
from .ghw import hierarchy
from .presets import get_preset, PRESETS
from .quadform import FrobeniusTerm, QuadraticForm, TraceSquareTerm

_TASKS = ("wd", "cwe", "ghw", "descend", "verify-lemmas")
_SUITES = ("lemma_basic", "lemma_gauss", "counts")  # what the verify-lemmas task checks
_FORMATS = ("text", "json", "csv")
# the tasks each command runs; None runs the config's own (a preset's)
_COMMAND_TASKS = {
    "qf": [],
    "code": ["wd"],
    "cwe": ["cwe"],
    "ghw": ["ghw"],
    "descend": ["descend"],
    "verify": ["verify-lemmas"],
    "preset": None,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _expect_keys(data: dict, allowed: set[str], path: str):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}{key}", "unknown key")


def validate_config(data: dict) -> dict:
    """Normalize a raw config dict; reject unknown keys with field paths."""
    if not isinstance(data, dict):
        raise ConfigError("", "config must be a JSON object")
    _expect_keys(
        data,
        {
            "tower",
            "form",
            "variant",
            "descent",
            "tasks",
            "budget",
            "ghw_r_max",
        },
        "",
    )
    out: dict = {"tower": _tower(data.get("tower"))}

    form = data.get("form")
    if not isinstance(form, dict):
        raise ConfigError("form", "required object")
    _expect_keys(form, {"terms", "frobenius", "trace_squares", "gram"}, "form.")
    frobs, trsqs = [], []
    parsers = {"frob": (_frob_term, frobs), "trsq": (_trsq_term, trsqs)}
    for path, term in _objects(form.get("terms"), "form.terms"):
        if term.get("kind") not in ("frob", "trsq"):  # by ==, so a list kind is refused too
            raise ConfigError(path + ".kind", "must be 'frob' or 'trsq'")
        parse, terms = parsers[term["kind"]]
        terms.append(parse(term, path, {"kind"}))
    for path, term in _objects(form.get("frobenius"), "form.frobenius"):
        frobs.append(_frob_term(term, path))
    for path, term in _objects(form.get("trace_squares"), "form.trace_squares"):
        trsqs.append(_trsq_term(term, path))
    gram = form.get("gram")
    if gram is not None and not (
        isinstance(gram, list) and all(isinstance(row, list) for row in gram)
    ):
        raise ConfigError("form.gram", "must be a list of lists")
    if gram is not None and (frobs or trsqs):
        raise ConfigError("form", "supply either terms or a Gram matrix, not both")
    out["form"] = {"frobenius": frobs, "trace_squares": trsqs, "gram": gram}

    variant = data.get("variant", "homogeneous")
    if variant not in ("homogeneous", "affine"):
        raise ConfigError("variant", "must be 'homogeneous' or 'affine'")
    out["variant"] = variant

    descent = data.get("descent")
    if descent is not None:
        if not isinstance(descent, dict):
            raise ConfigError("descent", "must be an object")
        _expect_keys(descent, {"N", "theta", "r_max"}, "descent.")
        out["descent"] = {
            "N": _int(descent.get("N"), "descent.N", positive=True),
            "theta": descent.get("theta"),
            "r_max": _r_max(descent.get("r_max"), "descent.r_max"),
        }
    else:
        out["descent"] = None

    tasks = data.get("tasks", ["wd", "cwe", "ghw"])
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks", "must be a nonempty list")
    for t in tasks:
        if t not in _TASKS:
            raise ConfigError("tasks", f"unknown task {t!r}; choose from {_TASKS}")
    out["tasks"] = list(tasks)

    out["budget"] = _int(data.get("budget", DEFAULT_BUDGET), "budget", positive=True)
    out["ghw_r_max"] = _r_max(data.get("ghw_r_max"), "ghw_r_max")
    return out


def _tower(tower) -> dict:
    """The tower object: p, m, m1 and m2, each a positive integer."""
    if not isinstance(tower, dict):
        raise ConfigError("tower", "required object with p, m, m1, m2")
    _expect_keys(tower, {"p", "m", "m1", "m2"}, "tower.")
    return {k: _int(tower.get(k), f"tower.{k}", positive=True) for k in ("p", "m", "m1", "m2")}


def _int(value, path: str, positive: bool = False) -> int:
    """An integer config field; a JSON boolean is not one, although
    ``isinstance(True, int)`` holds."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        raise ConfigError(path, "must be a positive integer" if positive else "required integer")
    return value


def _r_max(value, path: str):
    return None if value is None else _int(value, path, positive=True)


def _objects(items, path: str):
    """Yield ``(path[i], item)`` for a config list (absent: empty) whose
    items are objects."""
    if items is not None and not isinstance(items, list):
        raise ConfigError(path, "must be a list")
    for i, item in enumerate(items or []):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{i}]", "must be an object")
        yield f"{path}[{i}]", item


def _frob_term(term: dict, path: str, extra: set = frozenset()) -> dict:
    """A Frobenius term object; ``extra`` names the keys another grammar adds."""
    _expect_keys(term, {"coeff", "i"} | extra, path + ".")
    return {"coeff": term.get("coeff", 1), "i": _int(term.get("i"), path + ".i")}


def _trsq_term(term: dict, path: str, extra: set = frozenset()) -> dict:
    """A trace-square term object; ``extra`` as in ``_frob_term``."""
    _expect_keys(term, {"c", "b"} | extra, path + ".")
    return {"c": term.get("c", 1), "b": term.get("b", 1)}


def preset_config(name: str) -> tuple[dict, dict]:
    """(validated config, reference data) of a named preset."""
    preset = get_preset(name)
    return validate_config(preset.config), dict(preset.reference)


def _build_tower(tower: dict):
    """The tower of a validated ``tower`` object; what ``build_tower``
    refuses (p not an odd prime, a field past 63-bit indices) is an error of
    the config field ``tower``."""
    try:
        return build_tower(**tower)
    except ParameterError as e:
        raise ConfigError("tower", str(e)) from e


def _elem(field, token, path: str) -> Elem:
    """The element ``token`` of ``field``; a malformed token is an error of
    the config field ``path``."""
    try:
        return elem_from_data(field, token)
    except (MixedFieldError, ValueError) as e:
        raise ConfigError(path, str(e)) from e


def spec_from_config(cfg: dict) -> CodeSpec:
    tower = _build_tower(cfg["tower"])
    Fq, Fq1, form_cfg = tower.Fq, tower.Fq1, cfg["form"]
    frobs = tuple(
        FrobeniusTerm(_elem(Fq1, t["coeff"], "form"), t["i"]) for t in form_cfg["frobenius"]
    )
    trsqs = tuple(
        TraceSquareTerm(_elem(Fq, t["c"], "form"), _elem(Fq1, t["b"], "form"))
        for t in form_cfg["trace_squares"]
    )
    gram = form_cfg["gram"]
    if gram is None:
        terms = {"frobenius_terms": frobs, "trace_square_terms": trsqs}
    else:
        terms = {"gram": tuple(tuple(_elem(Fq, v, "form").idx for v in row) for row in gram)}
    try:
        analysis = QuadraticForm(tower, **terms).analysis
    except (MixedFieldError, ValueError) as e:  # ParameterError, ZeroFormError
        raise ConfigError("form", str(e)) from e
    return CodeSpec(analysis=analysis, variant=Variant(cfg["variant"]))


# ---------------------------------------------------------------------------
# report building
# ---------------------------------------------------------------------------


def _wd_to_json(wd) -> dict:
    return {str(w): f for w, f in wd.items()}


def _cwe_to_json(cwe) -> list:
    return [[list(comp), mult] for comp, mult in cwe.items()]


def _run_wd(spec: CodeSpec, reference: dict, disagreements: list) -> dict:
    wd_b = weight_distribution_brute(spec)
    wd_p = weight_distribution_predicted(spec)
    agree = wd_b == wd_p
    if not agree:
        disagreements.append("weight distribution: brute != predicted")
    n, k, q = spec.params()
    d = wd_b.min_nonzero()
    gries = griesmer_check(n, k, d, q)
    ab = ab_minimality(wd_b, q)
    out = {
        "params": [n, k, d, q],
        "brute": _wd_to_json(wd_b),
        "predicted": _wd_to_json(wd_p),
        "agree": agree,
        "griesmer": {
            "bound_sum": gries.bound_sum,
            "verdict": gries.verdict,
        },
        "minimality": {
            "w_min": ab.w_min,
            "w_max": ab.w_max,
            "verdict": ab.verdict,
        },
    }
    ref_params = reference.get("params")
    if ref_params is not None and len(ref_params) > 2 and d != ref_params[2]:
        disagreements.append(f"minimum distance {d} != reference {ref_params[2]}")
    ref_wd = reference.get("wd")
    if ref_wd is not None:
        want = {0: 1, **{int(w): f for w, f in ref_wd.items()}}
        out["reference_agrees"] = wd_b.as_dict() == want
        if not out["reference_agrees"]:
            disagreements.append("weight distribution: reference mismatch")
    return out


def _run_cwe(spec: CodeSpec, reference: dict, disagreements: list) -> dict:
    cw_b = cwe_brute(spec)
    cw_p = cwe_predicted(spec)
    agree = cw_b == cw_p
    if not agree:
        disagreements.append("complete weight enumerator: brute != predicted")
    out = {
        "brute": _cwe_to_json(cw_b),
        "predicted_agrees": agree,
        "total": cw_b.total(),
    }
    ref = reference.get("cwe")
    if ref is not None:
        pattern = reference.get("cwe_eta_pattern")
        if pattern is not None:
            Fq = spec.tower.Fq
            ours = [Fq.eta(Fq.neg(Fq.omega[i])) for i in range(1, Fq.order)]
            perm = eta_matching_permutation(ours, list(pattern))
            comparable = apply_symbol_permutation(cw_b, perm)
            out["relabeled"] = True
        else:
            comparable = cw_b
            out["relabeled"] = False
        ref_match = comparable.as_dict() == {tuple(c): m for c, m in ref.items()}
        out["reference_agrees"] = ref_match
        if not ref_match:
            disagreements.append("complete weight enumerator: reference mismatch")
    return out


def _run_ghw(spec: CodeSpec, cfg: dict, reference: dict, disagreements: list) -> dict:
    ref_vals = reference.get("hierarchy") or {}
    rep = hierarchy(spec, r_max=cfg["ghw_r_max"], reference_values=ref_vals)
    return {
        "rows": _hierarchy_rows(rep, "hierarchy", ("reference", "closed", "brute"), disagreements),
        "resolved": rep.resolved_hierarchy(),
        "strictly_increasing": rep.strictly_increasing(),
    }


def _hierarchy_rows(rep, label: str, values: tuple, disagreements: list) -> list:
    """One report row per r with the named ``values`` (of "reference",
    "closed", "brute"); a row that disagrees is listed under ``label``."""
    rows = []
    for row in rep.rows:
        cells = {"reference": row.reference, "closed": row.d_closed, "brute": row.d_brute}
        rows.append(
            {"r": row.r, **{v: cells[v] for v in values}, "agree": row.agree, "note": row.note}
        )
        if not row.agree:
            shown = " ".join(f"{v}={cells[v]}" for v in values)
            disagreements.append(f"{label} r={row.r}: {shown}")
    return rows


def _run_descend(spec: CodeSpec, cfg: dict, reference: dict, disagreements: list) -> dict:
    dcfg = cfg["descent"]
    if dcfg is None:
        raise ConfigError("descent", "task 'descend' needs a descent object")
    tower = spec.tower
    theta = dcfg["theta"]
    theta_elem = _elem(tower.Fq, theta, "descent.theta") if theta is not None else None
    params = make_descent(tower, dcfg["N"], theta=theta_elem)
    code = descend(spec, params)
    ref_params = reference.get("descended_params", {}).get(params.N)  # a preset's own N only
    if ref_params is not None and tuple(ref_params) != (code.length, code.dimension):
        disagreements.append("descended code parameters differ from reference")
    wts = psi_weight_table(params)
    nonzero_wts = sorted(set(wts[1:]))
    psi_ok = nonzero_wts == [params.column_weight]
    if not psi_ok:
        disagreements.append(
            f"psi weights {nonzero_wts} != constant {params.column_weight}"
        )
    wd_b = descended_wd(spec, params, "brute")
    wd_p = descended_wd(spec, params, "predicted")
    wd_ok = wd_b == wd_p
    if not wd_ok:
        disagreements.append("descended weight distribution: brute != predicted")
    orb = orbit_check(params)
    if not orb.ok:
        disagreements.append(
            f"orbit check: stabilizer {orb.stabilizer_size} "
            f"(expected {orb.expected_stabilizer}), orbits {orb.orbit_count}"
        )
    Fq = tower.Fq  # eta(o a) = eta(o) eta(a): a = 1 and a = g give every pair
    c, a = np.tile(np.arange(1, Fq.order), 2), np.repeat([1, Fq.gen], Fq.order - 1)
    ident_ok = sums_agree(*char_identity_checks(params, c, a))
    if not ident_ok:
        disagreements.append("coset character identities failed")
    rep = descended_hierarchy(spec, params, r_max=dcfg["r_max"])
    rows = _hierarchy_rows(rep, "descended hierarchy", ("closed", "brute"), disagreements)
    return {
        "N": params.N,
        "theta": elem_to_data(params.theta),
        "column_length": params.L,
        "column_weight": params.column_weight,
        "psi_constant_weight": psi_ok,
        "source_params": list(spec.params()),
        "descended_params": [code.length, code.dimension, tower.p],
        "wd_brute": _wd_to_json(wd_b),
        "wd_agree": wd_ok,
        "orbit": {
            "stabilizer": orb.stabilizer_size,
            "expected": orb.expected_stabilizer,
            "orbits": orb.orbit_count,
        },
        "identities_ok": ident_ok,
        "hierarchy": rows,
    }


def _run_verify(spec: CodeSpec, disagreements: list, suites: tuple) -> dict:
    """Run the ``suites`` (names from ``_SUITES``) and nothing else."""
    Fq, an = spec.tower.Fq, spec.analysis
    out: dict = {}
    if "lemma_basic" in suites:  # eta-twisted sums over all b, both parities
        k, b = np.divmod(np.arange(2 * Fq.order), Fq.order)
        brute, closed = eta_twisted_sums_brute(Fq, k, b), eta_twisted_sums_closed(Fq, k, b)
        out["lemma_basic"] = sums_agree(brute, closed)
    if "lemma_gauss" in suites:  # g_p^2 = p* and the quadratic-form exponential sums
        gauss_ok = all(
            gauss_sum(pp) * gauss_sum(pp) == CycInt.from_int(pp, pstar(pp))
            for pp in (3, 5, 7, 11, 13)
        )
        z = np.arange(1, Fq.order)
        brute, closed = qf_exp_sums_brute(an.form, z), qf_exp_sums_closed(an, z)
        out["lemma_gauss"] = gauss_ok and sums_agree(brute, closed)
    if "counts" in suites:  # closed vs brute at every (a, b = 0 or 1, beta); c only shifts beta
        closed = closed_profile(an).tolist()
        out["counts"] = closed == value_profile(an.form).tolist()
    for name, ok in out.items():
        if not ok:
            disagreements.append(f"verify {name}: brute != closed")
    return out


def run_config(
    cfg: dict, reference: dict | None = None, suites: tuple = _SUITES
) -> tuple[dict, int]:
    """Execute the configured tasks, the verify-lemmas task running the
    ``suites``; returns (report bundle, exit code)."""
    reference = reference or {}
    with budget(cfg["budget"]):  # every charge of the run reads this limit
        spec = spec_from_config(cfg)
        an = spec.analysis
        disagreements: list[str] = []
        errors: list[str] = []
        bundle: dict = {
            "config": cfg,
            "field_info": spec.tower.describe(),
            "analysis": {
                "r_q": an.r_q,
                "delta_q": elem_to_data(an.delta_q),
                "eps_q": an.eps_q,
                "eps": an.eps,
                "variant": spec.variant.value,
                "length": spec.length,
                "dimension": spec.dimension,
            },
        }
        ref_params = reference.get("params")
        if ref_params is not None:
            ok = tuple(ref_params[:2]) == (spec.length, spec.dimension)
            bundle["analysis"]["reference_params_agree"] = ok
            if not ok:
                disagreements.append("code parameters differ from reference")
        for task in cfg["tasks"]:
            if task == "wd":
                bundle["wd"] = _run_wd(spec, reference, disagreements)
            elif task == "cwe":
                bundle["cwe"] = _run_cwe(spec, reference, disagreements)
            elif task == "ghw":
                bundle["ghw"] = _run_ghw(spec, cfg, reference, disagreements)
            elif task == "descend":
                try:
                    bundle["descend"] = _run_descend(spec, cfg, reference, disagreements)
                except ParameterError as e:
                    bundle["descend"] = {"error": str(e)}
                    errors.append(f"descend: {e}")
            elif task == "verify-lemmas":
                bundle["verify"] = _run_verify(spec, disagreements, suites)
        bundle["disagreements"] = disagreements
        bundle["errors"] = errors
        if errors:
            return bundle, 1
        return bundle, (2 if disagreements else 0)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_json(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, indent=2)


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def render_csv(bundle: dict) -> str:
    rows: list = []
    _flatten("", bundle, rows)
    lines = ["field,value"]
    for key, val in rows:
        sval = "" if val is None else str(val)
        if "," in sval or '"' in sval:
            sval = '"' + sval.replace('"', '""') + '"'
        lines.append(f"{key},{sval}")
    return "\n".join(lines) + "\n"


def render_text(bundle: dict) -> str:
    out = []
    fi = bundle.get("field_info", {})
    an = bundle.get("analysis", {})
    out.append(
        f"tower: p={fi.get('p')} m={fi.get('m')} m1={fi.get('m1')} m2={fi.get('m2')}"
    )
    if an:
        out.append(
            f"form: rank={an['r_q']} eps_q={an['eps_q']:+d} eps={an['eps']:+d} "
            f"variant={an['variant']} -> [{an['length']}, {an['dimension']}]"
        )
    wd = bundle.get("wd")
    if wd:
        n, k, d, q = wd["params"]
        out.append(f"code [{n}, {k}, {d}]_{q}")
        out.append("  weight distribution (brute == predicted: %s)" % wd["agree"])
        for w, f in sorted(wd["brute"].items(), key=lambda t: int(t[0])):
            out.append(f"    w={w:>8}  A_w={f}")
        out.append(
            f"  griesmer: {wd['griesmer']['verdict']} "
            f"(sum {wd['griesmer']['bound_sum']})"
        )
        out.append(
            f"  minimality: {wd['minimality']['verdict']} "
            f"(w_min {wd['minimality']['w_min']}, w_max {wd['minimality']['w_max']})"
        )
    cw = bundle.get("cwe")
    if cw:
        out.append(
            "complete weight enumerator: %d codewords, predicted agrees: %s"
            % (cw["total"], cw["predicted_agrees"])
        )
        for comp, mult in cw["brute"]:
            out.append(f"    {mult} x {tuple(comp)}")
        if "reference_agrees" in cw:
            rel = " (after symbol relabeling)" if cw.get("relabeled") else ""
            out.append(f"  reference match{rel}: {cw['reference_agrees']}")
    gh = bundle.get("ghw")
    if gh:
        out.append("weight hierarchy:")
        out.append("    r   reference  closed     brute      agree")
        for row in gh["rows"]:
            out.append(
                "    {r:<3} {ref!s:<10} {closed!s:<10} {brute!s:<10} {agree}{note}".format(
                    r=row["r"],
                    ref=row["reference"] if row["reference"] is not None else "-",
                    closed=row["closed"],
                    brute=row["brute"] if row["brute"] is not None else "-",
                    agree=row["agree"],
                    note=("  # " + row["note"]) if row["note"] else "",
                )
            )
        out.append(f"  strictly increasing: {gh['strictly_increasing']}")
    de = bundle.get("descend")
    if de and "error" in de:
        out.append(f"descent: PARAMETER ERROR: {de['error']}")
        de = None
    if de:
        out.append(
            f"descent: N={de['N']} L={de['column_length']} "
            f"column weight={de['column_weight']} (constant: {de['psi_constant_weight']})"
        )
        sp = de["source_params"]
        dp = de["descended_params"]
        out.append(
            f"  source [{sp[0]}, {sp[1]}]_{bundle['config']['tower']['p']**bundle['config']['tower']['m']}"
            f" -> descended [{dp[0]}, {dp[1]}]_{dp[2]}"
        )
        out.append(f"  wd brute == predicted: {de['wd_agree']}")
        out.append(
            f"  orbit: stabilizer {de['orbit']['stabilizer']} "
            f"(expected {de['orbit']['expected']}), orbits {de['orbit']['orbits']}"
        )
        out.append(f"  character identities: {de['identities_ok']}")
        out.append("  descended hierarchy:")
        for row in de["hierarchy"]:
            out.append(
                "    r={r} closed={closed} brute={brute} agree={agree}{note}".format(
                    r=row["r"],
                    closed=row["closed"],
                    brute=row["brute"] if row["brute"] is not None else "-",
                    agree=row["agree"],
                    note=("  # " + row["note"]) if row["note"] else "",
                )
            )
    ve = bundle.get("verify")
    if ve:
        for name, ok in sorted(ve.items()):
            out.append(f"verify {name}: {'ok' if ok else 'FAILED'}")
    errs = bundle.get("errors", [])
    for e in errs:
        out.append(f"ERROR: {e}")
    dis = bundle.get("disagreements", [])
    if dis:
        out.append("DISAGREEMENTS:")
        for d in dis:
            out.append(f"  - {d}")
    elif not errs:
        out.append("all routes agree")
    return "\n".join(out) + "\n"


def _render(bundle: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(bundle)
    if fmt == "csv":
        return render_csv(bundle)
    return render_text(bundle)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage failures must exit 1; exit 2 is reserved for math disagreements
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_source_args(sp):
    sp.add_argument("--preset", help="named preset (see 'preset --list')")
    sp.add_argument("--config", help="path to a JSON experiment config")
    sp.add_argument("--format", choices=_FORMATS, default="text")
    sp.add_argument("--budget", type=int, default=None)


def _theta_token(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("descent.theta", f"invalid JSON: {e.msg}") from e


def _load(args, tasks: list[str] | None) -> tuple[dict, dict]:
    """The validated config and reference data of the run ``args`` describe:
    a preset or a config file, with the flags laid over it and checked by the
    same rules as the fields they set, then ``tasks`` (None keeps the
    config's own)."""
    if bool(args.preset) == bool(getattr(args, "config", None)):
        raise ConfigError("", "give exactly one of --preset or --config")
    if args.preset:
        cfg, reference = preset_config(args.preset)
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError("", f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError("", f"invalid JSON at line {e.lineno}: {e.msg}") from e
        cfg, reference = validate_config(raw), {}
    if args.budget is not None:
        cfg["budget"] = args.budget
    if getattr(args, "r_max", None) is not None:
        cfg["ghw_r_max"] = args.r_max
    theta = getattr(args, "theta_override", None)
    if cfg["descent"] is not None:
        if getattr(args, "N", None) is not None:
            cfg["descent"]["N"] = args.N
        if theta is not None:
            cfg["descent"]["theta"] = _theta_token(theta)
        if getattr(args, "ghw_r_max", None) is not None:
            cfg["descent"]["r_max"] = args.ghw_r_max
    elif getattr(args, "N", None) is not None:
        cfg["descent"] = {
            "N": args.N,
            "theta": _theta_token(theta) if theta is not None else None,
            "r_max": getattr(args, "ghw_r_max", None),
        }
    cfg = validate_config(cfg)
    if tasks is not None:
        cfg["tasks"] = tasks
    return cfg, reference


@functools.cache
def build_parser() -> _Parser:
    """The qfcodes parser, built on the first call and kept: parsing reads it
    and never changes it."""
    ap = _Parser(prog="qfcodes", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="print the pinned field representations")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-m", type=int, default=1)
    sp.add_argument("--m1", type=int, required=True)
    sp.add_argument("--m2", type=int, default=1)
    sp.add_argument("--format", choices=_FORMATS, default="text")

    sp = sub.add_parser("qf", help="analyze the quadratic form")
    _add_source_args(sp)

    sp = sub.add_parser("code", help="parameters, weight distribution, bounds")
    _add_source_args(sp)

    sp = sub.add_parser("cwe", help="complete weight enumerator")
    _add_source_args(sp)

    sp = sub.add_parser("ghw", help="weight hierarchy")
    _add_source_args(sp)
    sp.add_argument("--r-max", type=int, default=None, dest="r_max")

    sp = sub.add_parser("descend", help="descend to the prime field")
    _add_source_args(sp)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--theta-override", default=None,
                    help="element token (JSON) of order (q-1)/N")
    sp.add_argument("--ghw-r-max", type=int, default=None, dest="ghw_r_max")

    sp = sub.add_parser("verify", help="character-sum and count verifications")
    sp.add_argument("suite", choices=["lemma-basic", "lemma-gauss", "counts", "all"])
    _add_source_args(sp)

    sp = sub.add_parser("preset", help="list or run named presets")
    sp.add_argument("preset", nargs="?", metavar="name", help="preset to run")
    sp.add_argument("--list", action="store_true", dest="list_presets")
    sp.add_argument("--format", choices=_FORMATS, default="text")
    sp.add_argument("--budget", type=int, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "field-info":
            tower = _build_tower(_tower({k: getattr(args, k) for k in ("p", "m", "m1", "m2")}))
            bundle = {"field_info": tower.describe()}
            bundle["field_info"]["canonical_generator_Fq"] = elem_to_data(
                Elem(tower.Fq, tower.Fq.gen)
            )
            print(_render(bundle, args.format), end="")
            return 0
        if args.command == "preset" and (args.list_presets or not args.preset):
            for name in sorted(PRESETS):
                print(f"{name:<22} {PRESETS[name].summary}")
            return 0
        cfg, reference = _load(args, _COMMAND_TASKS[args.command])
        suite = getattr(args, "suite", "all")
        suites = _SUITES if suite == "all" else (suite.replace("-", "_"),)
        bundle, code = run_config(cfg, reference, suites)
        print(_render(bundle, args.format), end="")
        return code
    except (ConfigError, ParameterError) as e:
        print(f"qfcodes: error: {e}", file=sys.stderr)
        return 1
    except BudgetError as e:
        print(f"qfcodes: resource error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
