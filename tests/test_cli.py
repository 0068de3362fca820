import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import toricount
from toricount.cli import _json_text, main
from toricount.corpus import NAMES, fan_from_dict, fan_to_dict, golden_constants


def fan_json_path(name):
    """Filesystem path of a bundled corpus file."""
    from importlib import resources

    return str(resources.files("toricount").joinpath("corpus/%s.json" % name))


def schema(name):
    from importlib import resources

    text = (
        resources.files("toricount")
        .joinpath("schemas/%s.schema.json" % name)
        .read_text()
    )
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# JSON values as the commands print them: str keys, any nesting
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
    | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"": [], "\u00e9\u4e2d": {}, "x": [True, False, None, -0.0, 1e300, float("nan"), float("inf"), -float("inf")]})
def test_json_text_is_json_dumps_with_indent_1(value):
    assert _json_text(value) == json.dumps(value, indent=1)


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", fan_json_path("p2"))
    assert code == 0
    assert "completeness" in out and "PASS" in out


def test_validate_accepts_corpus_names(capsys):
    code, _, _ = run(capsys, "validate", "dp6")
    assert code == 0


def test_validate_json_schema(capsys):
    code, out, _ = run(capsys, "validate", "p1xp1-swap", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("validate"))
    assert payload["ok"]


def test_validate_bad_fan_exits_1(tmp_path, capsys):
    bad = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_corpus_files_match_fan_schema():
    sch = schema("fan")
    for name in NAMES:
        with open(fan_json_path(name)) as f:
            jsonschema.validate(json.load(f), sch)


def test_fan_roundtrip(corpus):
    for name, f in corpus.items():
        assert fan_from_dict(fan_to_dict(f)) == f


def test_constants_p1(capsys):
    code, out, _ = run(capsys, "constants", "p1", "--cutoff", "1000")
    assert code == 0
    assert "alpha = 1/2" in out
    assert "beta  = 1" in out


def test_constants_json_schema_and_goldens(capsys):
    sch = schema("constants")
    for name in NAMES:
        code, out, _ = run(capsys, "constants", name, "--cutoff", "500", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, sch)
        golden = golden_constants(name)
        assert payload["alpha"] == golden["alpha"]
        assert payload["beta"] == golden["beta"]
        assert payload["k"] == golden["k"]
        assert payload["h"] == golden["h"]
        if golden["split"]:
            # the certified interval lies inside the wider golden one
            assert golden["tau"]["lo"] <= payload["tau"]["lo"]
            assert payload["tau"]["hi"] <= golden["tau"]["hi"]
        else:
            assert payload["tau"] is None


def test_constants_dp6(capsys):
    code, out, _ = run(capsys, "constants", "dp6", "--cutoff", "1000")
    assert code == 0
    assert "alpha = 1/12" in out
    assert "k     = 4" in out


def test_constants_nonsplit_refuses_tau(capsys):
    code, out, _ = run(capsys, "constants", "p1xp1-swap")
    assert code == 0
    assert "refused" in out
    assert "alpha = 1/2" in out


S3_P2 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
    "galois": [[[0, -1], [1, -1]], [[0, 1], [1, 0]]],
}


def test_noncyclic_galois_group_gets_its_constants(capsys, tmp_path):
    # S_3 on P^2: alpha, beta and h for a noncyclic group, tau refused as
    # for every nonsplit fan, and counting refused for want of a split fan
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_P2))
    code, out, _ = run(capsys, "constants", str(path))
    assert code == 0
    assert "h     = 3" in out and "beta  = 1" in out and "tau   : refused" in out
    code, out, _ = run(capsys, "constants", str(path), "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), schema("constants"))
    code, out, _ = run(capsys, "xfunction", str(path))
    assert code == 0
    jsonschema.validate(json.loads(out), schema("xfunction"))
    code, _, err = run(capsys, "count", str(path), "--B-schedule", "10")
    assert code == 1
    assert err.startswith("error: ") and "counting needs a split fan" in err


def test_count_csv(capsys):
    code, out, _ = run(
        capsys, "count", "p1", "--B-schedule", "1e2,1e3,1e4,1e5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B,N,predicted,ratio"
    assert len(lines) == 5
    last_ratio = float(lines[-1].split(",")[-1])
    assert abs(last_ratio - 1) < 0.05


def test_count_builds_picard_data_once(capsys, tmp_path):
    # theta, alpha and the report share one build per fan; P^2 in
    # coordinates no other test uses, so the build is this command's
    from toricount.picard import picard_data

    path = tmp_path / "p2-sheared.json"
    sheared = {"dim": 2, "rays": [[1, 0], [1, 1], [-2, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    path.write_text(json.dumps(sheared))
    before = picard_data.cache_info().misses
    code, _, _ = run(capsys, "count", str(path), "--B-schedule", "10,100")
    assert code == 0
    assert picard_data.cache_info().misses == before + 1


def test_count_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "p1xp1",
        "--B-schedule",
        "1e3,1e4,1e5,1e6",
        "--out",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("count"))
    assert payload["k"] == 2
    assert "leading" in payload["regression"]


def test_count_budget_exit_3(capsys):
    code, _, err = run(
        capsys,
        "count",
        "p2",
        "--strategy",
        "naive",
        "--B-schedule",
        "1e2,1e3,1e4,1e12",
    )
    assert code == 3
    assert "budget" in err


def test_count_naive_small_table(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "p2",
        "--strategy",
        "naive",
        "--B-schedule",
        "1,10,100,1000",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    ns = [int(r.split(",")[1]) for r in rows]
    assert ns[0] == 4  # the four sign classes of (1, 1)
    assert ns == sorted(ns)


def test_count_single_point_schedule(capsys):
    # a one-point schedule still produces a small exact table
    code, out, _ = run(
        capsys, "count", "p2", "--strategy", "naive", "--B-schedule", "1e3"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "B,N,predicted,ratio"
    assert int(rows[1].split(",")[1]) == 3364


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError("%s is not valid JSON" % name)

    return json.loads(text, parse_constant=refuse)


def test_count_below_one_predicts_zero(capsys):
    # log B <= 0 for B <= 1: the prediction is 0, never negative, and the
    # ratio against a zero prediction is undefined
    code, out, _ = run(capsys, "count", "dp6", "--B-schedule", "1/2,1")
    assert code == 0
    assert out.splitlines()[1:] == ["1/2,0,0.000000,nan", "1,4,0.000000,nan"]
    code, out, _ = run(
        capsys, "count", "dp6", "--B-schedule", "1/2,1", "--out", "json"
    )
    assert code == 0
    payload = _strict_json(out)
    jsonschema.validate(payload, schema("count"))
    assert payload["counts"] == [0, 4]
    assert payload["predicted"] == [0.0, 0.0]
    assert payload["ratios"] == [None, None]


def test_count_regression_skips_rows_below_one(capsys):
    # 1/2 and 1 leave two rows with log B > 0: too few for a regression
    code, out, _ = run(
        capsys, "count", "dp6", "--B-schedule", "1/2,1,10,60", "--out", "json"
    )
    assert code == 0
    payload = _strict_json(out)
    assert payload["counts"][:2] == [0, 4]
    assert payload["regression"] == {}


def test_count_repeated_b_is_one_point(capsys):
    # 1000 three times and 10^5 are two distinct B: a plain table with a
    # row per entry, not an exact two-point fit with leading_se 0
    code, out, _ = run(
        capsys, "count", "p1xp1", "--B-schedule", "1000,1000,1000,100000", "--out", "json"
    )
    assert code == 0
    payload = _strict_json(out)
    jsonschema.validate(payload, schema("count"))
    assert payload["schedule"] == ["1000", "1000", "1000", "100000"]
    assert payload["counts"] == [10372, 10372, 10372, 1749124]
    assert payload["regression"] == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--cutoff", "500", "--json"),
        ("validate", "--json"),
        ("xfunction",),
        # rows with B <= 1 next to a regression over four B > 1 over two decades
        ("count", "--B-schedule", "1/2,1,2,5,20,200", "--out", "json"),
    ],
)
def test_json_output_is_strict(capsys, argv):
    for name in NAMES:
        if argv[0] == "count" and not golden_constants(name)["split"]:
            continue
        code, out, _ = run(capsys, argv[0], name, *argv[1:])
        assert code == 0, (name, argv)
        _strict_json(out)


def test_xfunction_json_schema(capsys):
    code, out, _ = run(capsys, "xfunction", "dp6")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("xfunction"))
    assert payload["ambient_rank"] == 4
    assert payload["h"] == 1


def test_localcheck(capsys):
    for name in ("p1", "p2", "dp6"):
        code, out, _ = run(capsys, "localcheck", name, "--prime", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


def test_localcheck_refuses_before_any_work(tmp_path, capsys):
    # dp6 x dp6 has 12 rays and a box of 41^4 terms: the cap refuses it
    # before any term is built (its Q, under Q's cap, takes ~0.13 s first)
    from test_tamagawa import product_fan

    from toricount.corpus import fan

    path = _write_fan(tmp_path, fan_to_dict(product_fan(fan("dp6"), fan("dp6"))))
    start = time.perf_counter()
    code, out, err = run(capsys, "localcheck", path, "--prime", "3", "--truncation", "20")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and not out
    assert "lattice terms" in err


def test_localcheck_diagonal_line_checks_q(monkeypatch, capsys):
    # the closed form is the cone sum, so a Q with one coefficient changed
    # must fail the diagonal factorization, which compares the two
    import dataclasses

    import toricount.localdata

    real = toricount.localdata.qsigma_split

    def doctored(fan):
        q = real(fan)
        exps, coeff = q.monomials[-1]
        return dataclasses.replace(q, monomials=q.monomials[:-1] + ((exps, coeff + 7),))

    # the command reaches qsigma_split through the package, so this one
    # patch is what it calls
    monkeypatch.setattr(toricount.localdata, "qsigma_split", doctored)
    code, out, _ = run(capsys, "localcheck", "dp6", "--prime", "3")
    assert code == 1
    (line,) = [l for l in out.splitlines() if "diagonal factorization" in l]
    assert line.split()[-1] == "FAIL"


def test_localcheck_nonsplit_rejected(capsys):
    # count refuses the same way, through the routing of its report
    for argv in (["localcheck", "p1-norm-one"], ["count", "p1-norm-one", "--B-schedule", "10"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: ") and "needs a split fan" in err, argv


P2 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
INVALID_FANS = {
    "nonprimitive": dict(P2, rays=[[2, 0], [0, 1], [-1, -1]]),
    "overlapping": dict(P2, max_cones=[[0, 1], [1, 2], [2, 0], [0, 1]]),
    "no-cones": dict(P2, rays=[], max_cones=[]),
    "unused-ray": dict(P2, rays=P2["rays"] + [[1, 1]]),
    "missing-cone": dict(P2, max_cones=[[0, 1], [1, 2]]),
    "determinant-2": dict(P2, rays=[[1, 0], [1, 2], [-1, -1]]),
}
MALFORMED_FANS = {
    "list": [1, 2, 3],
    "float-entry": dict(P2, rays=[[1.5, 0], [0, 1], [-1, -1]]),
    "string-entry": dict(P2, rays=[["1", 0], [0, 1], [-1, -1]]),
    "bool-dim": dict(P2, dim=True),
    "zero-dim": {"dim": 0, "rays": [], "max_cones": []},
    # written as text: 1,500 nested arrays pass the JSON decoder's recursion limit
    "deeply-nested": '{"dim": 2, "rays": %s, "max_cones": []}' % ("[" * 1500 + "]" * 1500),
}
COMMANDS = {
    "validate": (),
    "constants": (),
    "count": ("--B-schedule", "10"),
    "xfunction": (),
    "localcheck": (),
}


def _write_fan(tmp_path, data):
    path = tmp_path / "fan.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


@pytest.mark.parametrize("key", ["dim", "rays", "max_cones"])
def test_fan_missing_key_message(tmp_path, capsys, key):
    data = {k: v for k, v in P2.items() if k != key}
    code, out, err = run(capsys, "constants", _write_fan(tmp_path, data))
    assert code == 2 and not out
    assert err == 'error: the fan object has no "%s" key\n' % key


def test_count_specialized_unregistered_message(capsys):
    code, out, err = run(
        capsys, "count", "dp6", "--strategy", "specialized", "--B-schedule", "10"
    )
    assert code == 1 and not out
    assert err == "error: fan is not registered for specialized counting\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fan_name", sorted(INVALID_FANS))
def test_invalid_fan_refused_except_by_validate(tmp_path, capsys, command, fan_name):
    path = _write_fan(tmp_path, INVALID_FANS[fan_name])
    code, out, err = run(capsys, command, path, *COMMANDS[command])
    assert "Traceback" not in err
    if command == "validate":
        assert code == 1 and "FAIL" in out
    else:
        assert code == 2 and "invalid fan" in err and not out


WITNESS_FANS = dict(
    INVALID_FANS,
    wound=dict(P2, rays=P2["rays"] * 2, max_cones=[[i, (i + 1) % 6] for i in range(6)]),
)


@pytest.mark.parametrize("fan_name", sorted(WITNESS_FANS))
def test_witnesses_print_plain_numbers(tmp_path, capsys, fan_name):
    path = _write_fan(tmp_path, WITNESS_FANS[fan_name])
    _, out, _ = run(capsys, "validate", path, "--json")
    witnesses = [c["witness"] for c in json.loads(out)["checks"]]
    code, _, err = run(capsys, "constants", path)
    assert code == 2 and err.startswith("error: invalid fan: ")
    assert not any("Fraction(" in w for w in witnesses + [err])
    if fan_name == "missing-cone":
        assert err.endswith(
            "completeness check failed: facet (0,) lies in 1 maximal cone; witness (1, -1/2)\n"
        )


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fan_name", sorted(MALFORMED_FANS))
def test_malformed_fan_exits_2(tmp_path, capsys, command, fan_name):
    path = _write_fan(tmp_path, MALFORMED_FANS[fan_name])
    code, _, err = run(capsys, command, path, *COMMANDS[command])
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


def test_deeply_nested_fan_exits_2_in_a_fresh_process(tmp_path):
    # where the decoder gives up depends on the stack depth it starts at
    path = _write_fan(tmp_path, MALFORMED_FANS["deeply-nested"])
    src = os.path.dirname(os.path.dirname(toricount.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "toricount.cli", "validate", path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the fan file nests its JSON too deeply to decode\n"


@pytest.mark.parametrize(
    "fan_name, schedule, expect",
    [
        ("p2", "-5", 2),
        ("p2", "0", 2),
        ("dp6", "10,-1", 2),
        ("p2", "abc", 2),
        ("p2", "inf", 2),
        ("p2", "1e400", 3),
        ("dp6", "1e400", 3),
        ("dp6", "1e5000", 3),
        ("p1", "1e30", 3),
        ("p2", "1e30", 3),
        ("p1xp1", "1e30", 3),
        ("p1", "1/0", 2),
    ],
)
def test_count_schedule_input(capsys, fan_name, schedule, expect):
    code, _, err = run(capsys, "count", fan_name, "--B-schedule", schedule)
    assert code == expect
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expect",
    [
        # a cutoff is still read, but no longer sieves primes up to it
        (("constants", "dp6", "--cutoff", "100000000000000000000"), 0),
        (("constants", "dp6", "--cutoff", "2000001"), 0),
        (("constants", "p2", "--cutoff", "99"), 2),
        (("constants", "p2", "--cutoff", "-5"), 2),
        (("constants", "p2", "--cutoff", "100"), 0),
        (("count", "p2", "--B-schedule", "10", "--cutoff", "50"), 2),
        (("count", "p2", "--B-schedule", "10", "--cutoff", "10000000"), 0),
        (("count", "p2", "--B-schedule", "10", "--budget", "-1"), 2),
        (("count", "dp6", "--B-schedule", "10", "--budget", "0"), 3),
    ],
)
def test_numeric_options(capsys, argv, expect):
    code, out, err = run(capsys, *argv)
    assert code == expect
    assert "Traceback" not in err
    if expect:
        assert not out and err.startswith(("error: ", "budget exceeded: "))


@pytest.mark.parametrize(
    "command", [("constants", "--json"), ("count", "--B-schedule", "10", "--out", "json")]
)
def test_cutoff_does_not_change_the_result(capsys, command):
    outs = []
    for cutoff in ("100", "150000", "100000000000000000000"):
        code, out, _ = run(capsys, command[0], "dp6", *command[1:], "--cutoff", cutoff)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    theta = json.loads(outs[0])["theta"]
    assert 0 < theta["hi"] - theta["lo"] <= 1e-15 * theta["lo"]


def test_torsor_budget_refusal_is_quick(capsys):
    # dp6's prefix bound passes the default 5*10^7 between 10^7 and 10^8
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "dp6", "--B-schedule", "1e8")
    assert time.perf_counter() - start < 2
    assert code == 3 and not out
    assert err == (
        "budget exceeded: work estimate of 50136612 torsor prefixes is over the budget of 50000000\n"
    )


def test_dp6_at_10_to_the_6_fits_the_budget(capsys):
    # its prefix bound is 2.66M: the chain of its 12 automorphisms cut 51.3M
    code, out, err = run(capsys, "count", "dp6", "--B-schedule", "1e6")
    assert code == 0 and not err
    assert out.splitlines()[1].startswith("1000000,132330484,")


def test_count_underflowing_bound_k1(capsys):
    # 1e-400 is exact as a Fraction but underflows to 0.0 as a float; k = 1
    # takes no logarithm, so the row is a zero count with a null ratio
    code, out, err = run(capsys, "count", "p1", "--B-schedule", "1e-400", "--out", "json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["k"] == 1
    assert payload["counts"] == [0]
    assert payload["ratios"] == [None]


def test_count_schedule_parsed_exactly(capsys):
    # a decimal B is read as the exact rational it spells, not as a float
    code, out, _ = run(capsys, "count", "p2", "--B-schedule", "2.3", "--out", "json")
    assert code == 0
    assert json.loads(out)["schedule"] == ["23/10"]


F2 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}


@pytest.mark.parametrize(
    "args, expect",
    [
        (("--prime", "4"), 2),
        (("--prime", "1"), 2),
        (("--prime", "0"), 2),
        (("--prime", "-3"), 2),
        (("--s", "0"), 2),
        (("--truncation", "0"), 2),
        (("--prime", "7", "--s", "3", "--truncation", "8"), 0),
        # a prime found by Miller-Rabin, not by trial division to sqrt(p)
        (("--prime", "1000000000000000003"), 0),
        (("--prime", "1000000000000000001"), 2),
        # past the bound where Miller-Rabin to 13 bases is exact
        (("--prime", "3317044064679887385961981"), 2),
        # (2r + 1)^2 = 4 * 10^10 lattice terms, and powers 2^(s phi) of
        # 300,000 digits and more: both over local_integral's budget
        (("--truncation", "100000"), 3),
        (("--s", "1000000"), 3),
    ],
)
def test_localcheck_arguments(capsys, args, expect):
    start = time.perf_counter()
    code, _, err = run(capsys, "localcheck", "p2", *args)
    assert time.perf_counter() - start < 2
    assert code == expect
    assert "Traceback" not in err


def test_localcheck_uncertifiable_tail_is_an_error(tmp_path, capsys):
    # the second Hirzebruch surface has a ray of L1 norm 3, so s = 2 leaves
    # a slope of 2/3 per box shell, too little to certify the tail
    code, _, err = run(capsys, "localcheck", _write_fan(tmp_path, F2), "--s", "2")
    assert code == 1
    assert err.startswith("error: ") and "certify" in err


def test_localcheck_refuses_a_large_q_at_once(tmp_path, capsys):
    # Q of a 17-ray surface could have 2^17 monomials: over its cap
    from test_height_oracles import blown_up_p2

    path = _write_fan(tmp_path, fan_to_dict(blown_up_p2(17)))
    start = time.perf_counter()
    code, out, err = run(capsys, "localcheck", path, "--prime", "3")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and not out
    assert "Q monomials" in err


def test_schedule_refused_at_its_top_is_quick(capsys):
    # the largest B is bounded first: 10^8 alone passes the budget, before
    # 10^4 and 10^5 are bounded or counted
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "dp6", "--B-schedule", "10000,100000,100000000")
    assert time.perf_counter() - start < 2.5
    assert code == 3 and not out
    assert "torsor prefixes" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # dp6's prefix bound is 233,252 at 10^5: each of 40 bounds near it
        # fits a budget of 300,000, and their sum does not
        (
            ["--B-schedule", ",".join(str(100000 - i) for i in range(40)), "--budget", "300000"],
            "work estimate of 300205 torsor prefixes is over the budget of 300000",
        ),
        # the scan's candidates: 3,969 at B = 100 and 3,025 at 99
        (
            ["--B-schedule", "100,99", "--strategy", "naive", "--budget", "5000"],
            "work estimate of 6994 scan candidates is over the budget of 5000",
        ),
    ],
)
def test_budget_bounds_the_whole_schedule(capsys, argv, message):
    code, out, err = run(capsys, "count", "dp6", *argv)
    assert code == 3 and not out
    assert err == "budget exceeded: %s\n" % message
    # the largest B alone fits
    top = argv[1].split(",")[0]
    code, out, err = run(capsys, "count", "dp6", *argv[:1], top, *argv[2:])
    assert code == 0 and not err


def _outcome(capsys, argv):
    """main's exit code, stdout and stderr, with argparse's exits caught."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


# each command's options, or None for a flag: (values of a plain argv,
# values with a defect: a bad type or choice, or a leading "-")
ARGV_OPTIONS = {
    "validate": {"--json": None},
    "constants": {"--cutoff": (["500", "100", "99"], ["-1", "x", "1e3"]), "--json": None},
    "count": {
        "--B-schedule": (["10", "5,20", "1/2,8", "0", "1/0", ""], ["-1", "-2,5"]),
        "--strategy": (["auto", "naive", "specialized"], ["nope", "-n"]),
        "--out": (["csv", "json"], ["xml"]),
        "--cutoff": (["200"], ["-5", "x"]),
        "--budget": (["100000", "0"], ["-1", "x"]),
    },
    "xfunction": {"--json": None},
    "localcheck": {
        "--prime": (["2", "3", "4"], ["-3", "x"]),
        "--s": (["1", "2", "0"], ["-1"]),
        "--truncation": (["3", "0"], ["-2", "x"]),
    },
}


# a refused value is drawn most: it is the one defect with many forms
DEFECTS = ["refused"] * 4 + ["bare", "equals", "abbrev", "stray", "-h", "no path", "path last",
                            "no schedule", "bogus"]


@st.composite
def cli_argvs(draw):
    """A plain argv, `<command> <path> (--option value | --flag)*` with the
    options in any order and repeated and each value a plain one, then up
    to two defects of DEFECTS: a value that is not plain or a missing one,
    `--opt=value`, an abbreviation, a stray argument, -h, no path or one
    after the options, no --B-schedule, or a bogus command."""
    command = draw(st.sampled_from(sorted(ARGV_OPTIONS) + ["count"]))
    options = ARGV_OPTIONS[command]
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=5))
    if command == "count":
        names.insert(draw(st.integers(0, len(names))), "--B-schedule")
    pieces = [[n] if options[n] is None else [n, draw(st.sampled_from(options[n][0]))] for n in names]
    path = [draw(st.sampled_from(["p1", "p2"]))]
    valued = sorted(n for n in options if options[n] is not None)
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        piece = pieces[draw(st.integers(0, len(pieces) - 1))] if pieces else ["--json"]
        if defect in ("refused", "bare") and valued:
            name = draw(st.sampled_from(valued))
            piece = [name, draw(st.sampled_from(options[name][1]))]
            pieces.insert(draw(st.integers(0, len(pieces))), piece[: 1 + (defect == "refused")])
        elif defect == "equals":
            piece[:] = ["=".join(piece + ["1"] * (len(piece) == 1))]
        elif defect == "abbrev" and len(piece[0]) > 3:
            piece[0] = piece[0][: draw(st.integers(3, len(piece[0]) - 1))]
        elif defect in ("stray", "-h"):
            pieces.insert(draw(st.integers(0, len(pieces))), [defect])
        elif defect == "no path":
            path = []
        elif defect == "path last":
            pieces.append(path)
            path = []
        elif defect == "no schedule":
            pieces = [p for p in pieces if p[0] != "--B-schedule"]
        elif defect == "bogus":
            command = "bogus"
    return [command] + path + [token for piece in pieces for token in piece]


def test_cached_parser_carries_nothing_between_calls(capsys, monkeypatch):
    # main builds its parser once per process and memoizes a parse per argv:
    # each call sees its own flags and the defaults, never a flag of an
    # earlier call or a change made to an earlier namespace, and every argv
    # ends as it would through a fresh parser, usage lines and errors included
    import toricount.cli as cli
    from toricount.cli import _parse, _parser, build_parser

    calls = [
        ("constants", "p1", "--json", "--cutoff", "500"),
        ("count", "p1", "--B-schedule", "10,20", "--out", "json", "--strategy", "naive",
         "--budget", "1000", "--cutoff", "200"),
        ("validate", "p2", "--json"),
        ("constants", "p2"),
        ("count", "p2", "--B-schedule", "30"),
        ("validate", "p1"),
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err, argv
        assert out.startswith("{") == ("json" in argv or "--json" in argv), argv
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), argv
    assert _parser() is _parser()
    refused = [
        ("constants", "p1", "--bogus"),
        ("count", "p1"),
        ("count", "p1", "--B-schedule", "10", "--strategy", "nope"),
        ("count", "p1", "--B-schedule", "-2,5"),
        ("count", "p1", "--out", "json", "--B-schedule"),
        ("constants", "p1", "--cutoff", "x"),
        ("constants", "-h"),
        ("-h",),
        ("bogus", "p1"),
        (),
    ]

    def full_parse(argv):
        return build_parser().parse_args(argv)

    fast = [_outcome(capsys, argv) for argv in calls + refused]
    # a refusal is not cached: a second run exits and prints the same
    assert [_outcome(capsys, argv) for argv in refused] == fast[len(calls):]
    # each namespace _parse returns is its own: changing it leaves the next parse alone
    for argv in calls:
        args = _parse(argv)
        args.json = not getattr(args, "json", False)
        args.stray = 1
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), argv
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", full_parse)
        full = [_outcome(capsys, argv) for argv in calls + refused]
    for argv, a, b in zip(calls + refused, fast, full):
        assert a == b, argv
    assert fast[len(calls)][2].startswith("usage: toricount [-h] {validate,")
    assert fast[len(calls)][2].endswith("toricount: error: unrecognized arguments: --bogus\n")

    # and on drawn argvs of every command, plain or one or two defects away
    @settings(max_examples=300, deadline=None)
    @given(argv=cli_argvs())
    def same_outcome(argv):
        fast = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", full_parse)
            assert _outcome(capsys, argv) == fast, argv

    same_outcome()


@pytest.mark.parametrize("name", NAMES)
def test_a_repeated_call_prints_the_same_bytes(capsys, name):
    # validate_fan and theta are cached per fan value: a second call in the
    # same process reads the cache and must print what the first printed
    for argv in (
        ("constants", name, "--json"),
        ("validate", name, "--json"),
        ("count", name, "--B-schedule", "10,20", "--out", "json"),
    ):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first, argv


def test_a_repeated_constants_json_is_rendered_once(tmp_path, capsys, monkeypatch):
    # the report of a fan value is rendered once: a second call on an equal
    # fan, from another file, prints the same bytes without json.dumps
    import toricount.cli as cli

    sheared = {"dim": 2, "rays": [[1, 0], [2, 1], [-3, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(sheared))
    second.write_text(json.dumps(sheared, indent=3))
    code, out, _ = run(capsys, "constants", str(first), "--json")
    assert code == 0
    calls = []
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    assert run(capsys, "constants", str(second), "--json") == (0, out, "")
    assert calls == []


def test_a_fan_file_is_decoded_once_per_content(tmp_path, capsys, monkeypatch):
    # the file is read on every call and its bytes decoded once: a repeat
    # read of the same bytes parses no JSON, and a rewrite is seen at once
    import toricount.corpus as corpus

    path = tmp_path / "fan.json"
    path.write_text(json.dumps(P2, indent=5))
    p2 = run(capsys, "constants", str(path), "--json")
    assert p2 == run(capsys, "constants", "p2", "--json")
    p1xp1 = run(capsys, "constants", "p1xp1", "--json")
    rewrite = json.dumps(fan_to_dict(corpus.fan("p1xp1")), indent=5)
    loads = []
    parse = corpus.json.loads
    monkeypatch.setattr(corpus.json, "loads", lambda *a, **k: loads.append(a) or parse(*a, **k))
    assert run(capsys, "constants", str(path), "--json") == p2
    assert loads == []
    path.write_text(rewrite)
    assert run(capsys, "constants", str(path), "--json") == p1xp1 != p2
    assert len(loads) == 1


def test_a_malformed_fan_file_fails_alike_on_every_call(tmp_path, capsys, monkeypatch):
    # a raise is not cached: each call decodes the bytes again and prints
    # the same message and JSON offset
    import toricount.corpus as corpus

    path = _write_bytes(tmp_path, "bad.json", b'{"dim": 2,\r\n "rays": oops}')
    loads = []
    parse = corpus.json.loads
    monkeypatch.setattr(corpus.json, "loads", lambda *a, **k: loads.append(a) or parse(*a, **k))
    err = "error: Expecting value: line 2 column 10 (char 20)\n"
    for calls in (1, 2, 3):
        assert run(capsys, "validate", path) == (2, "", err)
        assert len(loads) == calls


def test_a_fan_file_and_its_corpus_name_share_one_decode(tmp_path, monkeypatch):
    # corpus.fan sends the bundled bytes through the same decoder, so a file
    # with those bytes gives the very Fan the name gives
    from importlib import resources
    from toricount.cli import _load_fan

    monkeypatch.chdir(tmp_path)
    for name in NAMES:
        raw = resources.files("toricount").joinpath("corpus/%s.json" % name).read_bytes()
        path = _write_bytes(tmp_path, name + ".json", raw)
        assert _load_fan(path) is _load_fan(name) == fan_from_dict(json.loads(raw))


def test_the_decoded_fans_stay_within_their_bound():
    from toricount.corpus import DECODED_FANS, fan_from_bytes

    for indent in range(DECODED_FANS + 5):
        assert fan_from_bytes(json.dumps(P2, indent=indent).encode()) == fan_from_dict(P2)
        info = fan_from_bytes.cache_info()
        assert info.maxsize == DECODED_FANS and info.currsize <= DECODED_FANS
    assert info.currsize == DECODED_FANS


def test_fan_from_dict_checks_a_row_at_once(monkeypatch):
    # one _int_array call per array, none per integer: on a 14-ray surface
    # that is dim, rays, max_cones and galois plus one per row
    import toricount.corpus as corpus
    from test_height_oracles import blown_up_p2

    data = fan_to_dict(blown_up_p2(14))
    calls = []
    check = corpus._int_array
    monkeypatch.setattr(corpus, "_int_array", lambda *a: calls.append(a) or check(*a))
    fan = fan_from_dict(data)
    assert fan == blown_up_p2(14)
    assert len(calls) == 4 + len(data["rays"]) + len(data["max_cones"])
    integers = 1 + sum(map(len, data["rays"] + data["max_cones"]))
    assert not any(type(a[0]) is int for a in calls[1:]) and len(calls) < integers


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def test_fan_loader_edge_cases(tmp_path, capsys):
    # reading a fan is one open of the path, read as UTF-8 text with
    # universal newlines: errors and their offsets are those of text mode
    p2 = json.dumps(P2, indent=1)
    crlf = p2.replace("\n", "\r\n").replace('"rays": [', '"rays": oops[')
    cases = {
        _write_bytes(tmp_path, "crlf.json", crlf.encode()):
            "error: Expecting value: line 3 column 10 (char 22)\n",
        _write_bytes(tmp_path, "bom.json", b"\xef\xbb\xbf" + p2.encode()):
            "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
        _write_bytes(tmp_path, "utf16.json", p2.encode("utf-16")):
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        str(tmp_path): "error: [Errno 21] Is a directory: '%s'\n" % tmp_path,
        str(tmp_path / "missing.json"):
            "error: [Errno 2] No such file or directory: '%s'\n" % (tmp_path / "missing.json"),
    }
    for path, err in cases.items():
        assert run(capsys, "constants", path) == (2, "", err), path


def test_corpus_names_and_local_files(tmp_path, capsys, monkeypatch):
    # a corpus name loads the bundled fan unless a file of that name is in
    # the working directory, which then wins
    monkeypatch.chdir(tmp_path)
    bundled = run(capsys, "constants", fan_json_path("dp6"), "--json")
    assert run(capsys, "constants", "dp6", "--json") == bundled
    (tmp_path / "dp6").write_text(json.dumps(P2))
    local = run(capsys, "constants", "dp6", "--json")
    assert local == run(capsys, "constants", fan_json_path("p2"), "--json") != bundled
