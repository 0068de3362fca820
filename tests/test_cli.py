import json
import time

import pytest

jsonschema = pytest.importorskip("jsonschema")

from toricount.cli import main
from toricount.corpus import NAMES, fan_from_dict, fan_json_path, fan_to_dict, golden_constants


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

    import toricount.cli
    import toricount.localdata

    real = toricount.localdata.qsigma_split

    def doctored(fan):
        q = real(fan)
        exps, coeff = q.monomials[-1]
        return dataclasses.replace(q, monomials=q.monomials[:-1] + ((exps, coeff + 7),))

    monkeypatch.setattr(toricount.localdata, "qsigma_split", doctored)
    monkeypatch.setattr(toricount.cli, "qsigma_split", doctored)
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
}
MALFORMED_FANS = {
    "list": [1, 2, 3],
    "float-entry": dict(P2, rays=[[1.5, 0], [0, 1], [-1, -1]]),
    "string-entry": dict(P2, rays=[["1", 0], [0, 1], [-1, -1]]),
    "bool-dim": dict(P2, dim=True),
    "zero-dim": {"dim": 0, "rays": [], "max_cones": []},
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
    path.write_text(json.dumps(data))
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
    **{
        "missing-cone": dict(P2, max_cones=[[0, 1], [1, 2]]),
        "wound": dict(P2, rays=P2["rays"] * 2, max_cones=[[i, (i + 1) % 6] for i in range(6)]),
    },
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
    # dp6 at 10^6 has a prefix bound of 51.3M against the default 5*10^7
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "dp6", "--B-schedule", "1e6")
    assert time.perf_counter() - start < 2
    assert code == 3 and not out
    assert err.startswith("budget exceeded: ") and "torsor prefixes" in err


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
    # the budget is checked once, at 10^6, before 10^4 and 10^5 are counted
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "dp6", "--B-schedule", "10000,100000,1000000")
    assert time.perf_counter() - start < 2.5
    assert code == 3 and not out
    assert "torsor prefixes" in err


def test_cached_parser_carries_nothing_between_calls(capsys):
    # main builds its parser once per process: each call sees its own
    # flags and the defaults, never a flag of an earlier call
    from toricount.cli import _parser, build_parser

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
        assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv)), argv
    assert _parser() is _parser()
