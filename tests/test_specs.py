"""Spec families: every shorthand is sugar for its JSON form, every malformed
spelling exits 2 naming itself, and the README lists the tables' spellings."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from katailab import cli, equidist, levelsets
from katailab import functions as fns
from katailab.cli import main
from katailab.constants import GOLDEN, SQRT2, rational
from katailab.equidist import log_gamma, log_power, polynomial, power, t_log_t, t_over_log_t
from katailab.levelsets import (
    Abundant,
    Deficient,
    GenericLevel,
    Intersection,
    IntervalSetMod1,
    KFree,
    OmegaMod,
    OmegaRot,
    PhiRatioBelow,
    Squarefree,
    TauMod,
)
from test_levelsets import all_variants

FAMILIES = {"--set": levelsets.SPELLINGS, "--function": fns.SPELLINGS,
            "--hardy": equidist.SPELLINGS}

# shorthands covering every spelling, each with the object it names, built by
# its constructor
SHORTHANDS = {
    "--set": [
        ("squarefree", Squarefree()),
        ("kfree:3", KFree(3)),
        ("omega_mod:3,1", OmegaMod(3, 1, "small_omega")),
        ("big_omega_mod:2,0", OmegaMod(2, 0, "big_omega")),
        ("tau_mod:4,1", TauMod(4, 1)),
        ("abundant", Abundant()),
        ("deficient", Deficient()),
        ("phi_below:0.5", PhiRatioBelow(rational("0.5"))),
        ("omega_rot:sqrt2,0,0.5",
         OmegaRot(SQRT2, IntervalSetMod1([(0, Fraction(1, 2))]), "small_omega")),
        ("big_omega_rot:golden,1/4,3/4",
         OmegaRot(GOLDEN, IntervalSetMod1([(Fraction(1, 4), Fraction(3, 4))]), "big_omega")),
        ("all", GenericLevel(fns.constant_one(), 1)),
    ],
    "--function": [(name, make()) for name, make in fns.CATALOG.items()] + [
        ("archimedean:1.5", fns.archimedean(1.5)),
        ("dirichlet:8,1,1", fns.dirichlet_character(8, [1, 1])),
        ("dirichlet:1", fns.dirichlet_character(1, [])),
        ("lambda_xi:sqrt2", fns.lambda_xi(SQRT2)),
        ("kappa_xi:0.25", fns.kappa_xi(rational("0.25"))),
        ("mu_xi:golden", fns.mu_xi(GOLDEN)),
    ],
    "--hardy": [
        ("power:1.5", power(rational("1.5"))),
        ("poly:0,1,sqrt2", polynomial([rational(0), rational(1), SQRT2])),
        ("poly:0,sqrt2,0,1", polynomial([rational(0), SQRT2, rational(0), rational(1)])),
        ("logpow:2.5", log_power(rational("2.5"))),
        ("tlogt", t_log_t()),
        ("toverlogt", t_over_log_t()),
        ("loggamma", log_gamma()),
    ],
}


def _identity(obj):
    return obj.to_json(), getattr(obj, "name", None)


@pytest.mark.parametrize("flag", FAMILIES)
def test_every_shorthand_is_its_json_form(flag):
    family = FAMILIES[flag]
    cases = SHORTHANDS[flag]
    assert {text.partition(":")[0] for text, _ in cases} == set(family.shorthand)
    for text, want in cases:
        got = family.parse(text)
        assert _identity(got) == _identity(want), text
        # a JSON target is a float: JSON all is named level(one,1.0), as before
        assert family.from_json(got.to_json()).to_json() == got.to_json(), text


def _pinned_specs():
    """Every SHORTHANDS object, every level set of test_levelsets, nested
    intersections, a complex GenericLevel target and both negative controls."""
    return [obj for cases in SHORTHANDS.values() for _, obj in cases] + all_variants() + [
        Intersection(KFree(3), Intersection(Squarefree(), GenericLevel(fns.mobius(), 1))),
        GenericLevel(fns.lambda_xi(SQRT2), complex(0.5, -0.25), tolerance=1e-6),
        polynomial([rational(0), rational(1), rational("1/2")], negative_control=True),
        log_power(rational("1.5"), negative_control=True),
    ]


# json.dumps(to_json(), sort_keys=True) of each _pinned_specs() object, in order
PINNED_JSON = [
    '{"variant": "squarefree"}',
    '{"k": 3, "variant": "kfree"}',
    '{"b": 3, "r": 1, "variant": "omega_mod"}',
    '{"b": 2, "r": 0, "variant": "big_omega_mod"}',
    '{"b": 4, "r": 1, "variant": "tau_mod"}',
    '{"variant": "abundant"}',
    '{"variant": "deficient"}',
    '{"threshold": {"kind": "decimal", "value": "1/2"}, "variant": "phi_ratio_below"}',
    '{"alpha": {"arg": 2, "kind": "sqrt"}, "variant": "omega_rot", "window": {"eps": 1e-12, "intervals": [{"closed": "[)", "hi": {"kind": "decimal", "value": "1/2"}, "lo": {"kind": "decimal", "value": "0"}}]}}',
    '{"alpha": {"kind": "golden"}, "variant": "big_omega_rot", "window": {"eps": 1e-12, "intervals": [{"closed": "[)", "hi": {"kind": "decimal", "value": "3/4"}, "lo": {"kind": "decimal", "value": "1/4"}}]}}',
    '{"function": {"function": "one"}, "target": {"im": 0.0, "re": 1.0}, "tolerance": 0.0, "variant": "generic_level"}',
    '{"function": "mobius"}',
    '{"function": "liouville"}',
    '{"function": "euler_phi_ratio"}',
    '{"function": "sigma"}',
    '{"function": "tau"}',
    '{"function": "big_omega"}',
    '{"function": "small_omega"}',
    '{"function": "squarefree_indicator"}',
    '{"function": "one"}',
    '{"function": "archimedean", "t": 1.5}',
    '{"exponents": [1, 1], "function": "dirichlet", "modulus": 8}',
    '{"exponents": [], "function": "dirichlet", "modulus": 1}',
    '{"function": "lambda_xi", "xi": {"arg": 2, "kind": "sqrt"}}',
    '{"function": "kappa_xi", "xi": {"kind": "decimal", "value": "1/4"}}',
    '{"function": "mu_xi", "xi": {"kind": "golden"}}',
    '{"c": {"kind": "decimal", "value": "3/2"}, "hardy": "power"}',
    '{"coefficients": [{"kind": "decimal", "value": "0"}, {"kind": "decimal", "value": "1"}, {"arg": 2, "kind": "sqrt"}], "hardy": "polynomial"}',
    '{"coefficients": [{"kind": "decimal", "value": "0"}, {"arg": 2, "kind": "sqrt"}, {"kind": "decimal", "value": "0"}, {"kind": "decimal", "value": "1"}], "hardy": "polynomial"}',
    '{"hardy": "log_power", "r": {"kind": "decimal", "value": "5/2"}}',
    '{"hardy": "t_log_t"}',
    '{"hardy": "t_over_log_t"}',
    '{"hardy": "log_gamma"}',
    '{"variant": "squarefree"}',
    '{"k": 3, "variant": "kfree"}',
    '{"b": 3, "r": 1, "variant": "omega_mod"}',
    '{"b": 2, "r": 0, "variant": "big_omega_mod"}',
    '{"b": 200, "r": 1, "variant": "big_omega_mod"}',
    '{"b": 130, "r": 3, "variant": "omega_mod"}',
    '{"left": {"b": 2, "r": 1, "variant": "omega_mod"}, "right": {"b": 3, "r": 0, "variant": "big_omega_mod"}, "variant": "intersection"}',
    '{"alpha": {"arg": 2, "kind": "sqrt"}, "variant": "big_omega_rot", "window": {"eps": 1e-12, "intervals": [{"closed": "[)", "hi": {"kind": "decimal", "value": "2/5"}, "lo": {"kind": "decimal", "value": "1/10"}}]}}',
    '{"alpha": {"kind": "golden"}, "variant": "omega_rot", "window": {"eps": 1e-12, "intervals": [{"closed": "[)", "hi": {"kind": "decimal", "value": "2/5"}, "lo": {"kind": "decimal", "value": "1/10"}}]}}',
    '{"variant": "abundant"}',
    '{"variant": "deficient"}',
    '{"threshold": {"kind": "decimal", "value": "1/2"}, "variant": "phi_ratio_below"}',
    '{"threshold": {"kind": "decimal", "value": "7/20"}, "variant": "phi_ratio_below"}',
    '{"threshold": {"kind": "decimal", "value": "607927101/1000000000"}, "variant": "phi_ratio_below"}',
    '{"threshold": {"arg": 2, "kind": "log"}, "variant": "phi_ratio_below"}',
    '{"b": 4, "r": 1, "variant": "tau_mod"}',
    '{"function": {"function": "mobius"}, "target": {"im": 0.0, "re": -1.0}, "tolerance": 0.0, "variant": "generic_level"}',
    '{"function": {"function": "lambda_xi", "xi": {"arg": 2, "kind": "sqrt"}}, "target": {"im": 0.0, "re": 1.0}, "tolerance": 1e-09, "variant": "generic_level"}',
    '{"left": {"function": {"function": "small_omega"}, "target": {"im": 0.0, "re": 2.0}, "tolerance": 0.0, "variant": "generic_level"}, "right": {"variant": "squarefree"}, "variant": "intersection"}',
    '{"left": {"k": 3, "variant": "kfree"}, "right": {"left": {"variant": "squarefree"}, "right": {"function": {"function": "mobius"}, "target": {"im": 0.0, "re": 1.0}, "tolerance": 0.0, "variant": "generic_level"}, "variant": "intersection"}, "variant": "intersection"}',
    '{"function": {"function": "lambda_xi", "xi": {"arg": 2, "kind": "sqrt"}}, "target": {"im": -0.25, "re": 0.5}, "tolerance": 1e-06, "variant": "generic_level"}',
    '{"coefficients": [{"kind": "decimal", "value": "0"}, {"kind": "decimal", "value": "1"}, {"kind": "decimal", "value": "1/2"}], "hardy": "polynomial", "negative_control": true}',
    '{"hardy": "log_power", "negative_control": true, "r": {"kind": "decimal", "value": "3/2"}}',
]


def test_spec_json_is_pinned():
    assert [json.dumps(obj.to_json(), sort_keys=True) for obj in _pinned_specs()] == PINNED_JSON


# a command reading each family's flag; a bad spelling fails before any sieve
COMMANDS = {"--set": ["density", "--x", "100"], "--function": ["meanvalue", "--n", "100"],
            "--hardy": ["weyl", "--n", "100"]}
_GENERIC = ('{"variant":"generic_level","function":{"function":"mobius"},'
            '"target":{"re":%s,"im":0},"tolerance":%s}')
_WINDOW = ('{"variant":"omega_rot","alpha":{"kind":"sqrt","arg":2},"window":{"intervals":'
           '[{"lo":{"kind":"decimal","value":"0"},"hi":{"kind":"decimal","value":"1/2"},'
           '"closed":"[)"}],"eps":%s}}')
_THRESHOLD = '{"variant":"phi_ratio_below","threshold":%s}'
MALFORMED = {
    "--set": ["{}", '{"variant":"kfree"}', '{"variant":"kfree","k":"x"}',
              '{"variant":"nosuchset"}', '{"variant":"intersection","left":5,"right":5}',
              "abundant:3", "kfree:3,4", "intersection", "generic_level",
              # the sweep workload's expected rejections
              "kfree:x", "big_omega_mod:2", "tau_mod:a,b", "nosuchset", "omega_rot:sqrt2",
              # an integer field holds a JSON integer, not a float or a bool
              '{"variant":"kfree","k":2.5}', '{"variant":"omega_mod","b":2.5,"r":0}',
              '{"variant":"tau_mod","b":3,"r":true}',
              # a constant whose float overflows
              "phi_below:1e400", '{"variant":"phi_ratio_below","threshold":'
                                 '{"kind":"decimal","value":"1e400"}}',
              # JSON-only fields: a tolerance and a target that are finite, a number eps
              *(_GENERIC % (target, tol) for target, tol in
                (("1", "-1"), ("1", "NaN"), ("NaN", "0"), ("1", '"x"'), ('"1"', "0"))),
              *(_WINDOW % eps for eps in ('"x"', "NaN", "-1", "true")),
              # a zero denominator; a decimal value that is no JSON string, an
              # arg that is no JSON integer
              "phi_below:1/0", *(_THRESHOLD % c for c in (
                  '{"kind":"decimal","value":"1/0"}', '{"kind":"decimal","value":1e400}',
                  '{"kind":"decimal","value":Infinity}', '{"kind":"decimal","value":0.1}',
                  '{"kind":"sqrt","arg":"2"}', '{"kind":"log","arg":true}'))],
    "--function": ["{}", '{"function":"dirichlet"}', '{"function":"archimedean","t":null}',
                   '{"function":"dirichlet","modulus":5,"exponents":[1.0]}',
                   '{"function":"dirichlet","modulus":5.0,"exponents":[1]}',
                   "dirichlet", "lambda_xi", "archimedean", "mobius:4", "lambda_xi:x",
                   # a non-finite t
                   "archimedean:inf", "archimedean:nan", '{"function":"archimedean","t":Infinity}',
                   # a float field holds a JSON number
                   '{"function":"archimedean","t":"1"}', '{"function":"archimedean","t":true}',
                   # a modulus above the tabulation bound 2^22: (Z/(2^22+1)Z)* is
                   # C4 x C396 x C2112, so the guard alone refuses it
                   f"dirichlet:{2**22 + 1},0,0,0"],
    "--hardy": ["{}", '{"hardy":"power"}', '{"hardy":"polynomial","coefficients":5}',
                "power", "tlogt:7", "poly:0,1,x", "polynomial:0,sqrt2", "poly:0,1e400,sqrt2",
                "power:1/0",
                # negative_control is a JSON boolean
                *('{"hardy":"log_power","r":{"kind":"decimal","value":"1.5"},'
                  f'"negative_control":{flag}}}' for flag in ('"no"', "1", "null"))],
}


def _nested(depth):
    """depth intersections nested in their left operand, as one JSON spec."""
    leaf = '{"variant":"squarefree"}'
    return '{"variant":"intersection","left":' * depth + leaf + (',"right":' + leaf + "}") * depth


# 3,000 levels overflow the JSON decoder, 600 levels the recursion of from_json
NESTED = [pytest.param("--set", _nested(depth), id=f"--set-nested{depth}")
          for depth in (600, 3_000)]


@pytest.mark.parametrize("flag,text", [(f, t) for f, texts in MALFORMED.items() for t in texts]
                         + NESTED)
def test_malformed_spelling_exits_2_naming_it(flag, text, monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert main([*COMMANDS[flag], flag, text]) == 2
    err = capsys.readouterr().err
    name = FAMILIES[flag].name
    assert err.startswith(f"error: bad {name} spec {text!r}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["katai", "--theta", "1/0", "--x", "100", "--correlation", "2", "3"],
    ["ergodic", "--set", "squarefree", "--alpha", "1/0", "--n", "50"],
])
def test_zero_denominator_constant_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: constant '1/0' has a zero denominator\n"


@pytest.mark.parametrize("argv", [
    ["density", "--set", "squarefree", "--x", "100", "--checkpoints", "inf"],
    ["density", "--set", "squarefree", "--x", "100", "--checkpoints", "10,1e400"],
    ["meanvalue", "--function", "mobius", "--n", "100", "--checkpoints", "nan"],
    ["tk", "--pmax", "10", "--x-list", "inf"],
    ["tk", "--pmax", "10", "--x-list", "100,1e400"],
])
def test_non_finite_int_lists_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"not a comma list of finite numbers: {argv[-1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("options", [
    ["--series", "cdf", "--json", "cdf.json", "--thresholds", "0:1:0"],
    ["--thresholds", "0:1:inf"],
    ["--thresholds", "0:1:2.5"],
    ["--thresholds", "0:1e400:3"],
    ["--thresholds", "0:1"],
    ["--series", "concentration", "--target", "1,2,3"],
    ["--series", "concentration", "--target", "nan"],
    ["--series", "halasz", "--t", "nan"],
    ["--series", "halasz", "--t", "inf"],
    ["--series", "concentration", "--tolerance", "nan"],
    ["--series", "concentration", "--tolerance", "-1"],
], ids=" ".join)
def test_bad_dist_options_exit_2(options, monkeypatch, capsys):
    monkeypatch.setattr(cli, "obtain_sieve", lambda *a: pytest.fail("sieve requested"))
    assert main(["dist", "--function", "mobius", "--n", "100", "--y", "100", *options]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and repr(options[-1]) in err, err
    assert "Traceback" not in err


def test_all_keeps_its_summary_name(capsys):
    assert main(["density", "--set", "all", "--x", "100"]) == 0
    assert capsys.readouterr().out.startswith("density[level(one,1)] at 100: 1.000000 ")


def test_readme_lists_the_spellings_of_the_tables():
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    section = " ".join(readme.split("\n## Spellings\n", 1)[1].split("\n## ", 1)[0].split())
    for flag, family in FAMILIES.items():
        entries = [f"`{row.tag}` (JSON only)" if row.short is None
                   else f"`{row.usage}`" + (f" (`{row.tag}`)" if row.tag != row.short else "")
                   for row in family.rows.values()]
        assert f"- `{flag}`, JSON key `{family.key}`: {', '.join(entries)}." in section
