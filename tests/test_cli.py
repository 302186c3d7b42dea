import json

import pytest

from gammalab import cli
from gammalab import families as fam
from gammalab.polynomial import UniPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_text_output(capsys):
    code, out = run(capsys, "family", "eulerian_a", "--n", "6")
    assert code == 0
    assert out.strip() == "1 57 302 302 57 1"


def test_family_rational_output(capsys):
    code, out = run(capsys, "family", "boros_moll", "--n", "5")
    assert code == 0
    assert out.split()[0] == "4389/256"


def test_family_bipoly_json(capsys):
    code, out = run(capsys, "family", "biv_des_exc", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"t_coeffs": [["1"], ["0", "3", "1"], ["0", "1"]]}


def test_expand_alt_gamma(capsys):
    code, out = run(
        capsys, "expand", "--basis", "alt-gamma", "--poly", "1 0 2 0 1", "--center", "4"
    )
    assert code == 0
    assert out.strip().endswith("1 4 4")
    code, out = run(
        capsys, "expand", "--basis", "alt-gamma", "--poly", "1 0 2 0 1", "--center", "4", "--json"
    )
    assert json.loads(out) == {"coeffs": ["1", "4", "4"], "n": 4, "sign": "-"}


def test_expand_classify(capsys):
    code, out = run(capsys, "expand", "--basis", "classify", "--poly", "1 4 1", "--json")
    assert code == 0
    assert json.loads(out)["gamma_positive"] == "yes"


def test_expand_default_center_is_degree(capsys):
    code, out = run(capsys, "expand", "--basis", "gamma", "--poly", "1 11 11 1")
    assert code == 0
    assert out.strip().endswith("1 8")


def test_oracle_stats(capsys):
    code, out = run(capsys, "oracle", "stats", "--n", "3", "--weight", "des")
    assert code == 0
    assert out.strip() == "1 4 1"


def test_oracle_orbit(capsys):
    code, out = run(capsys, "oracle", "orbit", "--perm", "3,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [3, 1, 2] in payload["orbit"]
    assert payload["des_poly"] == ["1", "2", "1"]


def test_stability_json(capsys):
    code, out = run(capsys, "stability", "--poly", "1 3 4 3 1", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "stable"


def test_stability_family(capsys):
    code, out = run(capsys, "stability", "--family", "mn-combination", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "stable"


def test_stability_usage_errors(capsys):
    code, _ = run(capsys, "stability", "--poly", "1 1", "--family", "mn-combination")
    assert code == 2
    code, _ = run(capsys, "stability", "--family", "mn-combination")
    assert code == 2


def test_stability_family_index_is_bounded(capsys):
    bound = fam.FAMILY_BOUND
    argv = ["stability", "--family", "mn-combination", "--json", "--n"]
    code, out = run(capsys, *argv, str(bound))
    assert code == 0 and json.loads(out)["status"] == "stable"
    assert cli.main(argv + [str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gammalab: family index {bound + 1} exceeds the bound {bound}\n"


def test_verify_single_pass(capsys):
    code, out = run(capsys, "verify", "ANXBNX", "--bound", "4")
    assert code == 0
    assert "pass" in out


def test_verify_unknown_identity(capsys):
    assert cli.main(["verify", "NOT_REAL"]) == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    fam.eulerian_a(8)
    original = fam.eulerian_a

    def corrupted(n):
        poly = original(n)
        return poly + UniPoly.monomial(1) if n == 4 else poly

    monkeypatch.setattr(fam, "eulerian_a", corrupted)
    code, out = run(capsys, "verify", "ANXBNX", "--bound", "4")
    assert code == 1
    assert "fail" in out and "witness" in out
    # A_4 is no longer symmetric, so ABREC's case n=4 raises inside its
    # alternating expansion: a failed case with a witness, not a usage error.
    code, out = run(capsys, "verify", "ABREC", "--bound", "6", "--json")
    assert code == 1
    witness = json.loads(out)[0]["witness"]
    assert witness["params"] == {"n": 4}
    assert witness["difference"].startswith("NotSymmetric: ")


def test_verify_json_byte_stable(capsys):
    _, first = run(capsys, "verify", "CUBE", "--bound", "5", "--json")
    _, second = run(capsys, "verify", "CUBE", "--bound", "5", "--json")
    assert first.encode() == second.encode()
    payload = json.loads(first)
    assert payload[0]["status"] == "pass" and payload[0]["witness"] is None


def test_conjecture_cli(capsys):
    code, out = run(capsys, "conjecture", "boros-moll", "--max-m", "3", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "holds-to-bound"
    code, out = run(
        capsys, "conjecture", "des-exc", "--max-n", "4", "--s", "1", "--s", "3/2"
    )
    assert code == 0
    assert "holds-to-bound" in out


def test_unknown_flag_is_an_error(capsys):
    assert cli.main(["family", "eulerian_a", "--n", "3", "--wat"]) == 2


def test_polynomial_text_round_trip_via_cli(capsys):
    _, out = run(capsys, "family", "l_poly", "--n", "4")
    assert UniPoly.from_text(out.strip()) == fam.l_poly(4)


@pytest.mark.parametrize("cap", ["abc", "-1"])
def test_bad_enumeration_cap_is_a_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("GAMMALAB_MAX_N", cap)
    assert cli.main(["verify", "FOATA"]) == 2
    assert "GAMMALAB_MAX_N" in capsys.readouterr().err


def test_clamped_check_reports_the_range_it_ran(capsys, monkeypatch):
    monkeypatch.setenv("GAMMALAB_MAX_N", "3")
    code, out = run(capsys, "verify", "FOATA", "--json")
    assert code == 0
    assert json.loads(out)[0]["range"] == "n <= 3"
    code, out = run(capsys, "verify", "NARA_B4", "--json")
    assert json.loads(out)[0]["range"] == "n <= 2"


COEFFICIENT = "gammalab: coefficient "
SAMPLE_BELOW_ONE = "gammalab: sample value s = "


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--basis", "gamma", "--poly", "1.5 0 1.5"], COEFFICIENT),
        (["expand", "--basis", "gamma", "--poly", "1e3 0 1e3"], COEFFICIENT),
        (["stability", "--poly", "1 2 1/0"], COEFFICIENT),
        (["conjecture", "des-exc", "--max-n", "3", "--s", "1.5"], COEFFICIENT),
        (["conjecture", "des-exc", "--max-n", "3", "--s", "0"], SAMPLE_BELOW_ONE),
        (["conjecture", "des-exc", "--max-n", "3", "--s", "-1"], SAMPLE_BELOW_ONE),
    ],
    ids=[f"argv{i}" for i in range(6)],
)
def test_coefficients_outside_the_wire_format_are_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_recursion_overflow_is_a_one_line_usage_error(capsys):
    assert cli.main(["family", "eulerian_a", "--n", "3000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = f"exceeds the bound {fam.FAMILY_BOUND}"
    assert captured.err.startswith("gammalab: ") and captured.err.count("\n") == 1
    assert bound in captured.err


def test_recursion_error_is_a_one_line_usage_error(capsys, monkeypatch):
    def overflow(family, n):
        raise RecursionError

    monkeypatch.setattr(fam, "generate", overflow)
    assert cli.main(["family", "eulerian_a", "--n", "3"]) == 2
    assert capsys.readouterr().err == "gammalab: input too large (recursion limit exceeded)\n"


def test_memory_error_is_a_one_line_usage_error(capsys, monkeypatch):
    def exhausted(family, n):
        raise MemoryError

    monkeypatch.setattr(fam, "generate", exhausted)
    assert cli.main(["family", "eulerian_a", "--n", "3"]) == 2
    assert capsys.readouterr().err == "gammalab: input too large (memory exceeded)\n"


@pytest.mark.parametrize(
    "basis", ["gamma", "alt-gamma", "binomial-plus", "binomial-minus", "symmetric", "classify"]
)
def test_a_center_above_the_bound_is_a_usage_error(capsys, basis):
    center = 10**15
    assert cli.main(["expand", "--basis", basis, "--poly", "1", "--center", str(center)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gammalab: center {center} exceeds the bound {fam.FAMILY_BOUND}\n"


@pytest.mark.parametrize(
    "env, argv",
    [
        ("0", ["verify", "NARA_B4"]),
        (None, ["verify", "FOATA", "--bound", "0"]),
        (None, ["verify", "FOATA", "--bound", "-5"]),
        (None, ["verify", "THM31_I", "--bound", "0"]),
    ],
)
def test_a_run_that_checks_no_case_is_empty_not_pass(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("GAMMALAB_MAX_N", env)
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)[0]["status"] == "empty"


def test_a_bound_with_one_case_still_passes(capsys):
    for argv in (["ANXBNX", "--bound", "0"], ["FOATA", "--bound", "1"], ["ND_ALT", "--bound", "2"]):
        code, out = run(capsys, "verify", *argv, "--json")
        assert code == 0 and json.loads(out)[0]["status"] == "pass"


@pytest.mark.parametrize("basis", ["semi-gamma", "alt-semi-gamma"])
def test_a_half_square_center_must_be_the_framing_degree(capsys, basis):
    argv = ["expand", "--basis", basis, "--poly", "1 57 302 302 57 1", "--json"]
    code, plain = run(capsys, *argv)
    assert code == 0
    dec = json.loads(plain)
    framing = 2 * dec["n"] + dec["nu"]
    assert framing == 5
    code, matched = run(capsys, *argv, "--center", str(framing))
    assert code == 0 and matched == plain
    assert cli.main(argv + ["--center", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gammalab: center 7 is not the framing degree 2n+nu = 5\n"
