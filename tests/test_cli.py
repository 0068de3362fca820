import json

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
            # the wider 500-cutoff interval must contain the golden center
            assert payload["tau"]["lo"] <= golden["tau"]["center"] <= payload["tau"]["hi"]
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


def test_localcheck_nonsplit_rejected(capsys):
    code, _, err = run(capsys, "localcheck", "p1-norm-one")
    assert code == 1


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
        (("constants", "dp6", "--cutoff", "100000000000000000000"), 3),
        (("constants", "dp6", "--cutoff", "2000001"), 3),
        (("constants", "p2", "--cutoff", "99"), 2),
        (("constants", "p2", "--cutoff", "-5"), 2),
        (("constants", "p2", "--cutoff", "100"), 0),
        (("count", "p2", "--B-schedule", "10", "--cutoff", "50"), 2),
        (("count", "p2", "--B-schedule", "10", "--cutoff", "10000000"), 3),
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
    ],
)
def test_localcheck_arguments(capsys, args, expect):
    code, _, err = run(capsys, "localcheck", "p2", *args)
    assert code == expect
    assert "Traceback" not in err


def test_localcheck_uncertifiable_tail_is_an_error(tmp_path, capsys):
    # the second Hirzebruch surface has a ray of L1 norm 3, so s = 2 leaves
    # a slope of 2/3 per box shell, too little to certify the tail
    code, _, err = run(capsys, "localcheck", _write_fan(tmp_path, F2), "--s", "2")
    assert code == 1
    assert err.startswith("error: ") and "certify" in err
