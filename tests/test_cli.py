"""End-to-end CLI behavior: pipelines, reports, exit codes, determinism."""

import io
import json
import subprocess
import sys

import pytest

from opoly import __version__, cli, composition, families, quadratic, serialize
from opoly.cli import VERIFY_SUMMARIES, main
from opoly.rational import rat


def invoke(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def family_json(u):
    return serialize.dumps(serialize.moments_record(u))


# -- moments ---------------------------------------------------------------

def test_moments_family_json(monkeypatch, capsys):
    code, out, err = invoke(monkeypatch, capsys, ["moments", "chebyshev-u", "--order", "8"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["version"] == __version__
    assert payload["label"] == "chebyshev-u"
    assert payload["order"] == 8
    assert payload["moments"] == ["1", "0", "1/4", "0", "1/8", "0", "5/64", "0"]


def test_moments_family_csv(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["moments", "chebyshev-u", "--order", "6", "--csv"]
    )
    assert code == 0
    assert out == "n,moment\n0,1\n1,0\n2,1/4\n3,0\n4,1/8\n5,0\n"


def test_moments_from_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(family_json(families.chebyshev_t(6)))
    code, out, _ = invoke(monkeypatch, capsys, ["moments", str(path)])
    assert code == 0
    assert json.loads(out)["moments"][2] == "1/2"


def test_moments_missing_file_is_a_usage_error(monkeypatch, capsys):
    code, out, err = invoke(monkeypatch, capsys, ["moments", "nosuchfamily"])
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_moments_laguerre_needs_alpha_above_minus_one(monkeypatch, capsys):
    code, _, err = invoke(
        monkeypatch, capsys, ["moments", "laguerre", "--alpha=-1"]
    )
    assert code == 2
    assert "alpha" in err


# -- smop ------------------------------------------------------------------

def test_smop_json(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["smop", "--n", "4"],
        stdin_text=family_json(families.chebyshev_t(12)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == ["0", "0", "0", "0"]
    assert payload["a"] == ["1/2", "1/4", "1/4"]
    assert payload["norms"] == ["1", "1/2", "1/8", "1/32"]


def test_smop_csv(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["smop", "--n", "3", "--csv"],
        stdin_text=family_json(families.chebyshev_u(12)),
    )
    assert code == 0
    assert out == "n,b,a,norm\n0,0,,1\n1,0,1/4,1/4\n2,0,1/4,1/16\n"


def test_smop_depth_defaults_to_half_the_order(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["smop"], stdin_text=family_json(families.chebyshev_u(12))
    )
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_smop_reports_quasi_definiteness_failures_as_json(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["smop", "--n", "3"],
        stdin_text='["1", "0", "0", "0", "0", "0"]',
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotQuasiDefinite"
    assert payload["level"] == 1
    assert payload["guard"] == "norm"
    assert payload["version"] == __version__


def test_smop_on_an_input_too_short_for_the_default_depth_is_truncation(monkeypatch, capsys):
    # without --n the depth comes from the input, so one moment is a
    # mathematical failure (exit 1); an explicit --n 0 stays a usage error
    code, out, err = invoke(monkeypatch, capsys, ["smop"], stdin_text='["1"]')
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["error"] == "TruncationExhausted"
    assert "needs 2 moments" in payload["message"]
    assert "have 1" in payload["message"]
    for stdin_text in ('["1"]', family_json(families.chebyshev_u(8))):
        code, out, err = invoke(monkeypatch, capsys, ["smop", "--n", "0"], stdin_text=stdin_text)
        assert (code, out) == (2, "")
        assert "--n must be at least 1" in err


@pytest.mark.parametrize("order", [1, 2, 3])
def test_associated_on_an_input_too_short_for_its_level_is_truncation(
    monkeypatch, capsys, order
):
    # level k reads the recurrence to depth k + 1, so 2k + 2 moments: a
    # shorter input is a mathematical failure (exit 1) whether or not --k
    # was passed; --k 0 stays a usage error
    stdin_text = family_json(families.chebyshev_u(order))
    for argv, k in ((["transform", "associated"], 1), (["transform", "associated", "--k", "2"], 2)):
        code, out, err = invoke(monkeypatch, capsys, argv, stdin_text=stdin_text)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["error"] == "TruncationExhausted"
        assert "level k=%d needs %d moments" % (k, 2 * k + 2) in payload["message"]
        assert "have %d" % order in payload["message"]
    code, out, err = invoke(
        monkeypatch, capsys, ["transform", "associated", "--k", "0"], stdin_text=stdin_text
    )
    assert (code, out) == (2, "")
    assert "--k must be at least 1" in err


def test_smop_rejects_empty_input(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["smop"], stdin_text="")
    assert code == 2
    assert "expected a moments record" in err


def test_smop_rejects_malformed_json(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["smop"], stdin_text="not json")
    assert code == 2
    assert "malformed JSON" in err


def test_order_field_must_match_the_moment_count(monkeypatch, capsys):
    bad = json.dumps({"moments": ["1", "2"], "order": 5})
    code, _, err = invoke(monkeypatch, capsys, ["smop"], stdin_text=bad)
    assert code == 2
    assert "bad moments record" in err


# -- transform ---------------------------------------------------------------

def test_transform_christoffel(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "christoffel", "--c", "1"],
        stdin_text=family_json(families.chebyshev_u(12)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "christoffel"
    assert payload["order"] == 11
    assert payload["moments"][:3] == ["-1", "1/4", "-1/4"]


def test_transform_inverse(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "inverse"],
        stdin_text=family_json(families.chebyshev_u(8)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "inverse"
    assert payload["moments"] == ["1", "0", "-1/4", "0", "-1/16", "0", "-1/32", "0"]


def test_transform_inverse_requires_a_nonzero_first_moment(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["transform", "inverse"], stdin_text='["0", "1"]'
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ZeroFirstMoment"


def test_transform_geronimus_factorial_moments(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "geronimus", "--c", "0", "--m0", "1"],
        stdin_text=family_json(families.laguerre(0, 10)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "geronimus"
    assert payload["order"] == 11
    assert payload["moments"][:6] == ["1", "1", "2", "6", "24", "120"]


def test_transform_quadratic_geronimus_prescribes_two_moments(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "quadratic-geronimus", "--c", "1", "--m0", "1", "--m1", "1/5"],
        stdin_text=family_json(families.chebyshev_u(8)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "quadratic-geronimus"
    assert payload["order"] == 10
    assert payload["moments"][:2] == ["1", "1/5"]


def test_transform_associated_of_chebyshev_t_is_chebyshev_u(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "associated", "--k", "1"],
        stdin_text=family_json(families.chebyshev_t(12)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "associated-1"
    want = families.chebyshev_u(9).moments
    assert payload["moments"] == serialize.rational_list(want)


def test_transform_corecursive_with_zero_shift_is_identity(monkeypatch, capsys):
    u = families.chebyshev_u(8)
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "corecursive", "--alpha", "0"],
        stdin_text=family_json(u),
    )
    assert code == 0
    assert json.loads(out)["moments"] == serialize.rational_list(u.moments)


def test_transform_rejects_zero_denominator(monkeypatch, capsys):
    code, _, err = invoke(
        monkeypatch,
        capsys,
        ["transform", "christoffel", "--c", "1/0"],
        stdin_text=family_json(families.chebyshev_u(8)),
    )
    assert code == 2
    assert "bad rational for --c" in err


def test_negative_option_values_need_the_equals_form(monkeypatch, capsys):
    # `--m0 -1/2` is ambiguous to the option parser; `--m0=-1/2` works
    with pytest.raises(SystemExit) as excinfo:
        invoke(
            monkeypatch,
            capsys,
            ["transform", "geronimus", "--m0", "-1/2"],
            stdin_text=family_json(families.chebyshev_u(8)),
        )
    assert excinfo.value.code == 2
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "geronimus", "--c", "1", "--m0=-1/2"],
        stdin_text=family_json(families.chebyshev_u(8)),
    )
    assert code == 0
    assert json.loads(out)["moments"][0] == "-1/2"


# -- factorize ---------------------------------------------------------------

def test_factorize_lu_chebyshev_u_closed_form(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "lu", "--c", "1", "--size", "6"],
        stdin_text=family_json(families.chebyshev_u(16)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "1"
    assert payload["beta"] == ["-1", "-3/4", "-2/3", "-5/8", "-3/5", "-7/12"]
    assert payload["ell"] == ["-1/4", "-1/3", "-3/8", "-2/5", "-5/12"]
    assert len(payload["transformed_b"]) == 5
    assert len(payload["transformed_a"]) == 4


def test_factorize_lu_zero_pivot(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "lu", "--c", "0", "--size", "6"],
        stdin_text=family_json(families.chebyshev_u(16)),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ZeroPivot"
    assert payload["level"] == 0


def test_factorize_ul_laguerre_closed_form(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "ul", "--c", "0", "--m0", "1", "--size", "6"],
        stdin_text=family_json(families.laguerre(0, 16)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == ["1", "2", "3", "4", "5", "6"]
    assert payload["ell"] == ["1", "2", "3", "4", "5"]
    assert payload["transformed_b"] == ["1", "3", "5", "7", "9", "11"]
    assert payload["transformed_a"] == ["1", "4", "9", "16", "25"]


def test_factorize_quadratic_triband_shape(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "quadratic", "--c", "1", "--m0", "1", "--m1", "1/5", "--size", "6"],
        stdin_text=family_json(families.chebyshev_u(16)),
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"version", "sub1", "sub2", "diag", "super1"}
    assert len(payload["sub1"]) == 5
    assert len(payload["sub2"]) == 4
    assert len(payload["diag"]) == 6
    assert len(payload["super1"]) == 5


def test_factorize_quadratic_degenerate_parameters_report_the_guard(monkeypatch, capsys):
    # m1 = 0 with m0 = 1 at c = 1 kills the transform's level-one Hankel
    # minor for chebyshev-u
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "quadratic", "--size", "6"],
        stdin_text=family_json(families.chebyshev_u(16)),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotQuasiDefinite"
    assert payload["level"] == 1
    assert payload["guard"] == "d_star"


def test_factorize_quadratic_defaults_to_the_largest_size_the_input_supports(
    monkeypatch, capsys
):
    # 16 moments carry a size-7 triband factorization (2*size + 2 moments)
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["factorize", "quadratic", "--c", "0", "--m1", "1/5"],
        stdin_text=family_json(families.chebyshev_u(16)),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["diag"]) == 7
    assert payload["diag"][:2] == ["1", "25/96"]


def test_an_error_record_on_stdin_passes_through_with_exit_1(monkeypatch, capsys):
    # the first stage of `moments | transform associated | smop` fails on a
    # functional whose level-1 Hankel minor vanishes
    code, failed, _ = invoke(
        monkeypatch,
        capsys,
        ["transform", "associated"],
        stdin_text=json.dumps(["1", "0", "0", "0", "1", "0"]),
    )
    assert code == 1
    code, out, err = invoke(monkeypatch, capsys, ["smop"], stdin_text=failed)
    assert (code, out, err) == (1, failed, "")
    assert json.loads(out)["error"] == "NotQuasiDefinite"
    assert json.loads(out)["level"] == 1


def test_factorize_ul_rejects_zero_mass(monkeypatch, capsys):
    # like `factorize quadratic --m0 0` and `verify ... --m0 0`: a
    # mathematical failure, not a usage error
    code, out, err = invoke(
        monkeypatch,
        capsys,
        ["factorize", "ul", "--m0", "0"],
        stdin_text=family_json(families.chebyshev_u(12)),
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "DegenerateParameter"


def assert_factorize_zero_pivot(monkeypatch, capsys, argv, u, level):
    code, out, err = invoke(monkeypatch, capsys, ["factorize"] + argv, stdin_text=family_json(u))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["error"], payload["level"]) == ("ZeroPivot", level)


@pytest.mark.parametrize("size", [[], ["--size", "6"]])
@pytest.mark.parametrize("c,level", [("0", 0), ("1/2", 1)])
def test_factorize_lu_at_a_zero_of_p_k_plus_1_is_zero_pivot_k(monkeypatch, capsys, size, c, level):
    # the monic Chebyshev U polynomials have P_1 = x and P_2 = x^2 - 1/4
    u = families.chebyshev_u(16)
    assert_factorize_zero_pivot(monkeypatch, capsys, ["lu", "--c", c] + size, u, level)


@pytest.mark.parametrize("size", [[], ["--size", "6"]])
@pytest.mark.parametrize(
    "u,b0,c",
    [(families.chebyshev_u(16), 0, "1/2"), (families.laguerre(0, 16), 2, "0")],
)
def test_factorize_ul_with_the_mass_that_kills_ell_1_is_zero_pivot_1(
    monkeypatch, capsys, size, u, b0, c
):
    # m0 = u_0 / (b_0 - c) makes beta_0 = b_0 - c, so ell_1 = b_0 - c - beta_0 = 0
    m0 = u.moments[0] / (b0 - rat(c))
    argv = ["ul", "--c", c, "--m0", str(m0)] + size
    assert_factorize_zero_pivot(monkeypatch, capsys, argv, u, 1)


@pytest.mark.parametrize("mode,smallest", [("lu", 2), ("ul", 2), ("quadratic", 3)])
def test_factorize_rejects_a_size_below_the_smallest_factorization(
    monkeypatch, capsys, mode, smallest
):
    code, _, err = invoke(
        monkeypatch,
        capsys,
        ["factorize", mode, "--c", "1/2", "--size", str(smallest - 1)],
        stdin_text=family_json(families.chebyshev_u(12)),
    )
    assert code == 2
    assert "--size must be at least %d" % smallest in err


@pytest.mark.parametrize(
    "mode,order,smallest,needed",
    [("lu", 3, 2, 4), ("ul", 3, 2, 4), ("quadratic", 6, 3, 8), ("quadratic", 7, 3, 8)],
)
def test_factorize_on_an_input_too_short_for_the_default_size_is_truncation(
    monkeypatch, capsys, mode, order, smallest, needed
):
    # without --size the size comes from the input, so a short input is a
    # mathematical failure (exit 1); an explicit --size below the smallest
    # stays a usage error (exit 2)
    stdin_text = family_json(families.chebyshev_u(order))
    code, out, err = invoke(monkeypatch, capsys, ["factorize", mode], stdin_text=stdin_text)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["error"] == "TruncationExhausted"
    assert "needs %d moments" % needed in payload["message"]
    assert "have %d" % order in payload["message"]
    code, out, err = invoke(
        monkeypatch, capsys, ["factorize", mode, "--size", str(smallest - 1)], stdin_text=stdin_text
    )
    assert (code, out) == (2, "")
    assert "--size must be at least %d" % smallest in err


# -- verify ------------------------------------------------------------------

def test_verify_list_catalogue(monkeypatch, capsys):
    code, out, _ = invoke(monkeypatch, capsys, ["verify", "--list"])
    assert code == 0
    payload = json.loads(out)
    names = [entry["name"] for entry in payload["identities"]]
    assert names == list(VERIFY_SUMMARIES)
    assert len(names) == 20
    assert all(entry["summary"] for entry in payload["identities"])


def test_verify_single_identity(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["verify", "identidad", "--family", "chebyshev-u", "--order", "16"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"] == "identidad"
    assert payload["checks"][0]["status"] == "pass"
    assert payload["checks"][0]["identity"] == "identidad"


def test_verify_reads_stdin_when_no_family_is_given(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["verify", "pade", "--n", "3"],
        stdin_text=family_json(families.chebyshev_t(16)),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["details"]["residue"] == "1/32"


def test_verify_repchris_with_family_parameters(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        [
            "verify",
            "repChris",
            "--family",
            "laguerre",
            "--alpha",
            "1/2",
            "--c=-1",
            "--n",
            "6",
        ],
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_verify_chain_payload(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        [
            "verify",
            "christoffel+assoc",
            "--family",
            "chebyshev-u",
            "--order",
            "20",
            "--c",
            "1",
            "--n",
            "6",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == "christoffel+assoc"
    assert payload["c"] == "1"
    assert payload["params"] == {"m0": "1", "n": 6, "size": 6}
    names = [check["identity"] for check in payload["checks"]]
    assert names == ["pro5", "christoffel-assoc-connection", "coro1", "shifted-lu"]
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_verify_division_chain(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        [
            "verify",
            "geronimus+assoc",
            "--family",
            "laguerre",
            "--alpha",
            "0",
            "--order",
            "20",
            "--c",
            "0",
            "--m0",
            "1",
            "--n",
            "6",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    names = [check["identity"] for check in payload["checks"]]
    assert names == ["S-corecursive", "gero1", "gero2", "pro6"]
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_verify_conex2_guard_instance(monkeypatch, capsys):
    # defaults (c=1, m0=1, m1=0) are honestly degenerate for chebyshev-u
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["verify", "conex2", "--family", "chebyshev-u"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotQuasiDefinite"
    assert payload["guard"] == "d_star"


def test_verify_unknown_identity(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["verify", "nope", "--family", "chebyshev-u"])
    assert code == 2
    assert "unknown identity" in err


def test_verify_needs_a_name_or_list(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["verify", "--family", "chebyshev-u"])
    assert code == 2
    assert "--list" in err


def test_verify_unknown_family(monkeypatch, capsys):
    code, _, err = invoke(monkeypatch, capsys, ["verify", "identidad", "--family", "nope"])
    assert code == 2
    assert "unknown family" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["relationlu", "--n", "2"], "--n must be at least 3"),
        (["g-matrix", "--n", "2"], "--n must be at least 3"),
        (["propLUinversa", "--n", "1"], "--n must be at least 2"),
        (["shifted-lu", "--n", "1"], "--n must be at least 2"),
        (["pade", "--n", "0"], "--n must be at least 1"),
        (["asociadosrepr", "--k", "0"], "--k must be at least 1"),
        (["linearcombination", "--n", "2", "--k", "3"], "needs --k <= --n"),
        (["christoffel+assoc", "--n", "1"], "--n must be at least 2"),
        (["pro6", "--n", "1"], "--n must be at least 2"),
        (["geronimus+assoc", "--n", "1"], "--n must be at least 2"),
    ],
)
def test_verify_range_errors_are_usage_errors(monkeypatch, capsys, argv, message):
    code, out, err = invoke(
        monkeypatch, capsys, ["verify"] + argv + ["--family", "chebyshev-u"]
    )
    assert code == 2 and out == ""
    assert message in err


FAMILIES = ("chebyshev-t", "chebyshev-u", "laguerre")


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_prop_lu_inversa_at_its_least_n(monkeypatch, capsys, family):
    code, out, err = invoke(
        monkeypatch,
        capsys,
        ["verify", "propLUinversa", "--n", "2", "--family", family, "--c", "1/3"],
    )
    assert code == 0 and err == ""
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass"
    assert (check["details"]["ul_block"], check["details"]["lu_block"]) == (0, 1)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", list(cli.IDENTITIES))
def test_verify_every_identity_at_its_least_n(monkeypatch, capsys, name, family):
    n = str(cli.IDENTITIES[name].least_n)
    code, out, err = invoke(
        monkeypatch,
        capsys,
        ["verify", name, "--n", n, "--k", n, "--family", family]
        + ["--c=1/3", "--m0=7/3", "--m1=1/5"],
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert all(check["status"] == "pass" for check in payload["checks"])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", ["2", "3", "5"])
def test_verify_linearcombination_at_k_equal_to_n(monkeypatch, capsys, family, k):
    # P^(k)_0 = 1 reads none of the k shifted coefficients
    code, out, err = invoke(
        monkeypatch,
        capsys,
        ["verify", "linearcombination", "--k", k, "--n", k, "--family", family],
    )
    assert code == 0 and err == ""
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass" and check["details"]["k"] == int(k)


@pytest.mark.parametrize("order", [4, 5])
def test_verify_coro1_on_fewer_than_six_moments_is_a_truncation(monkeypatch, capsys, order):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["verify", "coro1", "--c", "1/3"],
        stdin_text=family_json(families.laguerre(1, order)),
    )
    assert code == 1
    assert json.loads(out)["error"] == "TruncationExhausted"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", ["2", "3"])
def test_verify_asociadosrepr_at_n_1(monkeypatch, capsys, family, k):
    code, out, err = invoke(
        monkeypatch,
        capsys,
        ["verify", "asociadosrepr", "--k", k, "--n", "1", "--family", family],
    )
    assert code == 0 and err == ""
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass"
    assert check["details"]["k"] == int(k)


@pytest.mark.parametrize("name", ["gero1", "gero2", "pro6", "geronimus+assoc"])
def test_verify_zero_mass_is_a_typed_error(monkeypatch, capsys, name):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["verify", name, "--family", "laguerre", "--order", "12", "--n", "3", "--m0", "0"],
    )
    assert code == 1
    assert json.loads(out)["error"] == "DegenerateParameter"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fu1", "--family", "chebyshev-u"],
        ["verify", "relationS", "--family", "chebyshev-u"],
        ["verify", "relationlu", "--family", "chebyshev-u"],
        ["transform", "associated"],
    ],
)
def test_zero_norm_is_a_typed_error(monkeypatch, capsys, argv):
    # a zero first moment makes the associated functional vanish, so both
    # sides of fu1/relationS/relationlu would agree vacuously
    code, out, _ = invoke(
        monkeypatch, capsys, argv + ["--norm", "0"], stdin_text=family_json(families.chebyshev_u(12))
    )
    assert code == 1
    assert json.loads(out)["error"] == "DegenerateParameter"


@pytest.mark.parametrize(
    "name,helper", [("propLUinversa", "quadratic_kernel"), ("relationlu", "inverse_kernel")]
)
def test_a_library_assertion_is_not_an_identity_failure(monkeypatch, capsys, name, helper):
    # a broken producer is a library bug: it must propagate, never be
    # reported as the paper's identity failing
    def broken(*args):
        raise AssertionError("inside the producer")

    monkeypatch.setattr(quadratic, helper, broken)
    with pytest.raises(AssertionError, match="inside the producer"):
        invoke(monkeypatch, capsys, ["verify", name, "--family", "chebyshev-u"])


def test_a_zero_division_inside_the_math_is_not_a_usage_error():
    # a producer failing with a bare ZeroDivisionError is a library bug:
    # it must surface as a traceback, never as exit 2 ("bad arguments")
    script = (
        "import sys\n"
        "from opoly import cli\n"
        "def producer(*args):\n"
        "    raise ZeroDivisionError('inside the math')\n"
        "cli.smop_from_moments = producer\n"
        "sys.exit(cli.main(['smop']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=family_json(families.chebyshev_u(8)),
        capture_output=True,
        text=True,
    )
    assert result.returncode != 2
    assert "ZeroDivisionError: inside the math" in result.stderr


# -- example -------------------------------------------------------------------

def test_example_chebyshev_u(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["example", "chebyshev-u", "--order", "24"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "chebyshev-u"
    assert payload["a_minus"][:4] == ["-1/4", "1/2", "1/8", "3/8"]
    assert payload["d_star"][:3] == ["-1", "-1/4", "-1/8"]
    assert all(v == "0" for v in payload["b_minus"])
    assert all(v == "0" for v in payload["alpha1"])
    assert all(check["status"] == "pass" for check in payload["checks"])
    names = [check["identity"] for check in payload["checks"]]
    assert "kernel-step-table" in names


def test_example_chebyshev_t(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch, capsys, ["example", "chebyshev-t", "--order", "24"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a_minus"][:4] == ["-1/2", "3/4", "1/12", "5/12"]
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_example_laguerre(monkeypatch, capsys):
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["example", "laguerre", "--alpha", "1/2", "--order", "20"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "1/2"
    assert payload["b_minus"][0] == "-5/2"
    names = [check["identity"] for check in payload["checks"]]
    assert "inverse-kernel-step-table" in names
    assert "value-at-zero-table" in names
    assert "assoc-value-at-zero-table" in names
    assert all(check["status"] == "pass" for check in payload["checks"])


@pytest.mark.parametrize("name", sorted(families.FAMILIES))
def test_example_checks_every_table_of_the_family(name):
    # a route gives one column per closed form (zip is strict)
    payload, ok = cli.family_reproduction(name, rat(1, 3), 12)
    assert ok
    tables = families.FAMILIES[name].tables(rat(1, 3))
    assert [check["identity"] for check in payload["checks"]] == [t.name for t in tables]


def test_example_value_tables_read_every_polynomial_of_the_recurrence():
    # P_0..P_{order/2} and P^(1)_0..P^(1)_{order/2 - 1}, off the values at 0
    payload, ok = cli.family_reproduction("laguerre", rat(1, 3), 12)
    levels = {check["identity"]: check["max_level"] for check in payload["checks"]}
    assert ok and (levels["value-at-zero-table"], levels["assoc-value-at-zero-table"]) == (6, 5)


def test_example_rejects_an_order_without_an_inverse_table(monkeypatch, capsys):
    code, out, err = invoke(monkeypatch, capsys, ["example", "laguerre", "--order", "3"])
    assert code == 2 and out == ""
    assert "--order must be at least 4" in err


# -- environment and plumbing ---------------------------------------------------

def test_max_order_cap_is_enforced(monkeypatch, capsys):
    monkeypatch.setenv("OPOLY_MAX_ORDER", "10")
    code, _, err = invoke(
        monkeypatch, capsys, ["moments", "chebyshev-u", "--order", "24"]
    )
    assert code == 2
    assert "exceeds OPOLY_MAX_ORDER" in err


def test_max_order_cap_must_be_a_sane_integer(monkeypatch, capsys):
    monkeypatch.setenv("OPOLY_MAX_ORDER", "abc")
    code, _, err = invoke(monkeypatch, capsys, ["moments", "chebyshev-u"])
    assert code == 2
    assert "must be an integer" in err
    monkeypatch.setenv("OPOLY_MAX_ORDER", "3")
    code, _, err = invoke(monkeypatch, capsys, ["moments", "chebyshev-u"])
    assert code == 2
    assert "at least 4" in err


def test_output_is_deterministic(monkeypatch, capsys):
    argv = ["moments", "chebyshev-u", "--order", "12"]
    _, first, _ = invoke(monkeypatch, capsys, argv)
    _, second, _ = invoke(monkeypatch, capsys, argv)
    assert first == second
    argv = ["verify", "--list"]
    _, first, _ = invoke(monkeypatch, capsys, argv)
    _, second, _ = invoke(monkeypatch, capsys, argv)
    assert first == second


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys, tmp_path):
    # `main` parses with one parser per process: each call must give what a
    # freshly built parser gives, whatever the calls before it did
    target = tmp_path / "out.json"
    moments = family_json(families.chebyshev_t(16))
    identidad = ["verify", "identidad", "--family", "chebyshev-u", "--order", "16"]
    calls = [
        (["verify", "--n", "x"], ""),  # argparse rejects it: SystemExit(2)
        (["verify"], ""),  # the handler rejects it: exit 2
        (["verify", "--list"], ""),
        (["verify", "pro5", "--family", "chebyshev-u", "--order", "20", "--c", "1/2"], ""),
        (["verify", "conex2", "--family", "chebyshev-u"], ""),  # typed error
        (identidad, ""),
        (identidad + ["--out", str(target)], ""),
        (["verify", "pade", "--n", "3"], moments),
        (["smop", "--n", "4", "--csv"], moments),
    ]
    # a wrong co-recursive parameter makes pro5 fail: exit 1 with a report
    monkeypatch.setattr(composition, "corecursive_parameter", lambda u, c: rat(5))

    def run(fresh):
        results = []
        for argv, stdin_text in calls:
            if fresh:
                cli.shared_parser.cache_clear()
            target.unlink(missing_ok=True)
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = target.read_text() if target.exists() else None
            results.append((code, out, err, written))
        return results

    want = run(fresh=True)
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli.shared_parser.cache_clear()
    assert run(fresh=False) == want
    assert len(builds) == 1
    assert [code for code, _, _, _ in want] == [2, 2, 0, 1, 1, 0, 0, 0, 0]
    assert "invalid int value" in want[0][2]
    assert json.loads(want[3][1])["checks"][0]["status"] == "fail"
    assert want[6][1] == "" and want[6][3] == want[5][1]
    assert want[7][1] and want[7][3] is None


def test_out_flag_writes_a_file(monkeypatch, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = invoke(
        monkeypatch,
        capsys,
        ["moments", "chebyshev-u", "--order", "6", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["order"] == 6


def test_pipe_between_subcommands(monkeypatch, capsys):
    _, moments_out, _ = invoke(monkeypatch, capsys, ["moments", "chebyshev-t", "--order", "12"])
    code, out, _ = invoke(monkeypatch, capsys, ["smop", "--n", "4"], stdin_text=moments_out)
    assert code == 0
    assert json.loads(out)["a"] == ["1/2", "1/4", "1/4"]


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "opoly",
            "verify",
            "geronimus+assoc",
            "--family",
            "chebyshev-u",
            "--order",
            "20",
            "--c",
            "1",
            "--m0=-1/2",
            "--n",
            "6",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["chain"] == "geronimus+assoc"
    assert payload["params"]["m0"] == "-1/2"
    assert all(check["status"] == "pass" for check in payload["checks"])
