import json
import os
import subprocess
import sys
import warnings

import pytest

from dirichlet_lab import (
    AccuracyWarning,
    NumericalError,
    builtin_series,
    cli,
    smooth_truncation_eval,
)
from dirichlet_lab.cli import UsageError, _parse_complex
from dirichlet_lab.coefficients import MultiplicativeSource

from _harness import run_cached, run_cli

MOMENT_ETA = [
    "moment", "--series", "eta-factor", "--sigma", "1.0", "--T", "250",
]


def test_parse_complex_forms():
    assert _parse_complex("0.75+30i") == 0.75 + 30.0j
    assert _parse_complex("1") == 1.0 + 0.0j
    assert _parse_complex("-2.5") == -2.5 + 0.0j
    assert _parse_complex("2i") == 2.0j
    assert _parse_complex("i") == 1.0j
    assert _parse_complex("+i") == 1.0j
    assert _parse_complex("-i") == -1.0j
    assert _parse_complex("1-i") == 1.0 - 1.0j
    assert _parse_complex("1+i") == 1.0 + 1.0j
    assert _parse_complex("1.5e1-2e-1i") == 15.0 - 0.2j
    for bad in ("1+2j", "abc", "", "i+1", "1++2i"):
        with pytest.raises(UsageError, match="a\\+bi"):
            _parse_complex(bad)


def test_moment_json_document():
    code, out, err = run_cached(MOMENT_ETA)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"experiment", "config", "result"}
    assert doc["experiment"] == "moment"
    cfg = doc["config"]
    assert cfg["series"] == "eta-factor"
    assert cfg["output"] == "json"
    assert "seed" not in cfg  # no computation reads a seed
    assert "threads" not in cfg  # outputs must not encode the worker count
    res = doc["result"]
    assert set(res) == {"sigma", "k", "T", "step", "estimate", "target",
                        "rel_error", "rule"}
    assert res["target"] == 2.0
    assert abs(res["estimate"] - 2.0) < 0.01


def test_outputs_identical_across_thread_counts():
    base = run_cached(MOMENT_ETA)
    for n in ("1", "4", "8"):
        got = run_cached(MOMENT_ETA + ["--threads", n])
        assert got[0] == 0
        assert got[1] == base[1]


def test_env_thread_override(monkeypatch):
    base = run_cached(MOMENT_ETA)
    monkeypatch.setenv("DLAB_THREADS", "4")
    code, out, err = run_cli(MOMENT_ETA)
    assert code == 0 and out == base[1]
    for bad in ("0", "abc"):
        monkeypatch.setenv("DLAB_THREADS", bad)
        code, out, err = run_cli(MOMENT_ETA)
        assert code == 1 and out == ""
        assert err.startswith("dlab: precondition: thread count")
        assert err.count("\n") == 1


def test_moment_csv_shape():
    code, out, err = run_cached(MOMENT_ETA + ["--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,k,T,step,estimate,target,rel_error"
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0 and int(cells[1]) == 1
    doc = json.loads(run_cached(MOMENT_ETA)[1])
    assert float(cells[4]) == doc["result"]["estimate"]


def test_moment_csv_blank_cells_without_target():
    argv = [
        "moment", "--series", "divisor_2", "--sigma", "1.5", "--T", "5",
        "--step", "0.05", "--N", "500", "--format", "csv",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row.endswith(",,")  # no known target for this series


def test_zeros_subcommand_roundtrip():
    argv = [
        "zeros", "--series", "builtin:eta-factor", "--rect", "0.5,1.5,8.5,9.5",
    ]
    code, out, err = run_cached(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 1
    z = doc["result"]["zeros"][0]
    assert abs(z["re"] - 1.0) < 1e-9
    assert z["confirmed"] is True
    code, out, _ = run_cached(argv + ["--format", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,residual"
    assert float(lines[1].split(",")[0]) == z["re"]


def test_density_subcommand():
    argv = [
        "density", "--series", "eta-factor", "--sigma-list", "0.9", "--T", "50",
        "--format", "csv",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,T,count"
    assert lines[1] == "0.9,50.0,6"


def test_flow_box_subcommand():
    argv = ["flow", "--T", "100", "--box", "0,0.5"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert "dims" not in doc["config"]
    row = doc["result"]["rows"][0]
    assert row["target"] == 0.5
    assert row["error"] < 0.05
    assert "series" not in doc["config"]
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert out.split("\n")[0] == "t-horizon,estimate,target,error"


def test_flow_argument_conflicts():
    code, _, err = run_cli(["flow", "--T", "100"])
    assert code == 64 and "dlab: usage:" in err
    code, _, err = run_cli(
        ["flow", "--T", "100", "--box", "0,0.5", "--suite", "standard"]
    )
    assert code == 64 and "mutually exclusive" in err
    code, _, err = run_cli(["flow", "--T", "100", "--box", "0,0.5,0.2"])
    assert code == 64 and "one lo,hi pair per dimension" in err


def test_recur_json_only():
    argv = [
        "recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
        "--T", "5", "--t-step", "0.01",
    ]
    code, out, _ = run_cached(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["hits"] == []  # first ladder period lies above T=5
    assert doc["result"]["lower_bound_rate"] == 0.0
    assert doc["config"]["s0"] == {"re": 1.0, "im": 0.0}
    code, _, err = run_cached(argv + ["--format", "csv"])
    assert code == 64
    assert "recur emits JSON only" in err


def test_mollify_subcommand():
    argv = [
        "mollify", "--series", "zeta", "--sigma", "0.75", "--X-list", "10,100",
        "--N", "10000", "--format", "csv",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "X,tail"
    x0, tail0 = lines[1].split(",")
    x1, tail1 = lines[2].split(",")
    assert (int(x0), int(x1)) == (10, 100)
    assert float(tail1) < float(tail0)


def test_mollify_builds_its_table_once(monkeypatch):
    # The inverse and the mollified series share one dense table.
    limits = []
    dense = MultiplicativeSource.dense

    def counted(self, limit):
        limits.append(limit)
        return dense(self, limit)

    monkeypatch.setattr(MultiplicativeSource, "dense", counted)
    argv = ["mollify", "--series", "divisor_2", "--sigma", "1.2", "--X-list",
            "10", "--N", "2000"]
    code, _, _ = run_cli(argv)
    assert code == 0
    assert limits == [2000]


@pytest.mark.parametrize("xs, size", [("10,100", 101), ("10,5000", 2001)])
def test_mollify_inverts_only_the_prefix_it_reads(monkeypatch, xs, size):
    # The tails read b_1..b_X, so the inverse runs to the largest X below N.
    sizes = []
    inverse = cli._inverse_of_table

    def counted(a):
        sizes.append(a.size)
        return inverse(a)

    monkeypatch.setattr(cli, "_inverse_of_table", counted)
    argv = ["mollify", "--series", "divisor_2", "--sigma", "1.2", "--X-list",
            xs, "--N", "2000"]
    code, _, _ = run_cli(argv)
    assert code == 0
    assert sizes == [size]


def test_truncate_subcommand():
    argv = ["truncate", "--series", "zeta", "--s", "1.5", "--k", "2", "--M", "1000"]
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,tail_bound"
    re_s, im_s, bound_s = lines[1].split(",")
    want, want_bound = smooth_truncation_eval(
        builtin_series("zeta"), 1.5 + 0.0j, 2, 1000
    )
    assert float(re_s) == want.real
    assert float(im_s) == want.imag
    assert float(bound_s) == want_bound


@pytest.mark.parametrize("M", ["1000000", "100000000000000"])
def test_truncate_past_the_smooth_work_cap_is_numerical(M):
    # The primes <= min(2^24, M) number 78,498 or 1,077,871, so the
    # member-prime scan cap leaves room for 3,419 or 249 members, and the
    # enumeration is refused early.
    argv = ["truncate", "--series", "zeta", "--s", "1.5", "--k", "24", "--M", M]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("dlab: numerical:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "pairs, extra",
    [
        # finite smooth-tail terms 1e308 4^{-0.1} whose sum overflows
        ([(1, 1.0), (2, 1e308), (4, 1e308)], ["--s", "0.1", "--k", "2", "--M", "1"]),
        # the tail's terms n^{2000} overflow
        ([(1, 1.0), (2, 1.0), (3, 1.0)], ["--s", "-2000", "--k", "2", "--M", "1"]),
        # the value overflows
        ([(1, 1.0), (2, 1.0), (3, 1.0)], ["--s", "-2000", "--k", "2"]),
        # the Euler product over p <= 2^16 is nan
        (None, ["--series", "divisor_40", "--s", "0.51", "--k", "16",
                "--format", "csv"]),
    ],
    ids=["tail-sum", "tail-terms", "value", "euler-product"],
)
def test_truncate_past_float_range_is_numerical(tmp_path, pairs, extra):
    series = [] if pairs is None else ["--series", _explicit_file(tmp_path, pairs)]
    code, out, err = run_cli(["truncate"] + series + extra)
    assert code == 2 and out == ""
    assert err.startswith("dlab: numerical:") and err.count("\n") == 1


# Where each CSV's rows live in its JSON result.
_CSV_ROWS = {
    "moment": lambda res: [res],
    "zeros": lambda res: res["zeros"],
    "density": lambda res: res["rows"],
    "flow": lambda res: res["rows"],
    "mollify": lambda res: res["pairs"],
    "truncate": lambda res: [dict(res["value"], tail_bound=res["tail_bound"])],
}


@pytest.mark.parametrize(
    "argv, header",
    [
        (MOMENT_ETA, "sigma,k,T,step,estimate,target,rel_error"),
        (["moment", "--series", "divisor_2", "--sigma", "1.5", "--T", "5",
          "--step", "0.05", "--N", "500"], "sigma,k,T,step,estimate,target,rel_error"),
        (["zeros", "--series", "eta-factor", "--rect", "0.5,1.5,-1,30"], "re,im,residual"),
        (["density", "--series", "eta-factor", "--sigma-list", "0.9,1.1", "--T", "50"],
         "sigma,T,count"),
        (["flow", "--suite", "standard", "--T", "1000"], "t-horizon,estimate,target,error"),
        (["mollify", "--series", "divisor_2", "--sigma", "1.2", "--X-list", "10,100,5000",
          "--N", "2000"], "X,tail"),
        (["truncate", "--series", "zeta", "--s", "1.5", "--k", "2", "--M", "1000"],
         "re,im,tail_bound"),
        (["truncate", "--series", "character_7_1", "--s", "1.7+3i", "--k", "6"],
         "re,im,tail_bound"),
    ],
    ids=["moment", "moment-no-target", "zeros", "density", "flow", "mollify",
         "truncate", "truncate-euler"],
)
def test_csv_is_a_projection_of_the_json(argv, header):
    # Column c is the JSON row value under c.replace("-", "_"), as _csv_cell
    # writes it; recur has no CSV (test_recur_json_only).
    code, text, _ = run_cached(argv)
    assert code == 0
    rows = _CSV_ROWS[argv[0]](json.loads(text)["result"])
    code, csv, _ = run_cached(argv + ["--format", "csv"])
    assert code == 0
    lines = csv.split("\n")
    assert lines[0] == header and lines[-1] == ""
    keys = [c.replace("-", "_") for c in header.split(",")]
    want = [",".join(cli._csv_cell(row[k]) for k in keys) for row in rows]
    assert len(want) >= 1 and lines[1:-1] == want


def test_non_finite_coefficient_file_is_a_precondition(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "multiplicative", "prime_powers": [[2, 1, NaN, 0], [3, 1, 2, 0]]}')
    code, out, err = run_cli(["moment", "--series", str(path), "--sigma", "1.5", "--T", "10",
                              "--N", "1000"])
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition:") and err.count("\n") == 1


def test_series_resolution(tmp_path):
    spec = {"kind": "explicit", "coeffs": [[1, 1.0, 0.0], [2, -2.0, 0.0]]}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(spec))
    argv_file = ["moment", "--series", str(path), "--sigma", "1.0", "--T", "50"]
    argv_builtin = ["moment", "--series", "eta-factor", "--sigma", "1.0", "--T", "50"]
    doc_file = json.loads(run_cli(argv_file)[1])
    doc_builtin = json.loads(run_cli(argv_builtin)[1])
    assert doc_file["result"] == doc_builtin["result"]
    code, _, err = run_cli(
        ["moment", "--series", "no_such_series", "--sigma", "1.0", "--T", "10"]
    )
    assert code == 1
    assert err.startswith("dlab: precondition: unknown builtin series")


@pytest.mark.parametrize("sigma, k", [("1.3", "2"), ("2.5", "1")])
def test_zeta_moment_target_does_not_warn(sigma, k):
    # Every node lies in zeta's validated strip; the target's zeta(4 sigma)
    # or zeta(2 sigma) lies on the real axis past 4, where zeta is as
    # accurate (test_zeta checks it against mpmath).
    argv = ["moment", "--series", "zeta", "--sigma", sigma, "--k", k, "--T", "10"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["target"] is not None


def test_exit_codes_and_stderr_prefixes():
    code, _, err = run_cli(["moment", "--series", "zeta", "--sigma", "0.4", "--T", "10"])
    assert code == 1 and err.startswith("dlab: precondition:")
    code, _, err = run_cli(
        ["mollify", "--series", "zeta", "--sigma", "0.75", "--X-list", "10",
         "--N", "200"]
    )
    assert code == 2 and err.startswith("dlab: numerical: increase N")
    code, _, err = run_cli(["frobnicate"])
    assert code == 64 and err.startswith("dlab: usage:")
    code, _, err = run_cli([])
    assert code == 64
    code, _, err = run_cli(["moment", "--series", "zeta", "--T", "10"])
    assert code == 64  # --sigma is required
    code, _, err = run_cli(
        ["zeros", "--series", "eta-factor", "--rect", "1,2,3"]
    )
    assert code == 64 and "sigma_lo,sigma_hi,t_lo,t_hi" in err
    code, _, err = run_cli(
        ["recur", "--series", "eta-factor", "--s0", "1+2j", "--r", "0.05",
         "--T", "5"]
    )
    assert code == 64


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "doc.json"
    argv = MOMENT_ETA + ["--out", str(target)]
    code, out, err = run_cli(argv)
    assert code == 0 and out == "" and err == ""
    doc = json.loads(target.read_text())
    assert doc["experiment"] == "moment"
    assert doc == json.loads(run_cached(MOMENT_ETA)[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--series", "zeta", "--sigma", "0.75", "--T", "nan"],
        ["zeros", "--series", "builtin:eta-factor", "--rect", "0.5,inf,0,1"],
        ["flow", "--suite", "standard", "--T", "inf"],
    ],
)
def test_non_finite_numbers_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 64 and out == ""
    assert err.startswith("dlab: usage:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--series", "builtin:eta-factor", "--rect", "-0.5,0.5,0,30"],
        ["recur", "--series", "HALF", "--s0", "-1+0i", "--r", "0.05", "--T", "20"],
        ["truncate", "--series", "HALF", "--s", "-1+2i", "--k", "8"],
        ["density", "--series", "eta-factor", "--sigma-list", "-0.2,0.3", "--T", "30"],
    ],
    ids=["zeros-rect", "recur-s0", "truncate-s", "density-sigma-list"],
)
def test_values_that_start_with_a_minus_sign(tmp_path, argv):
    # argparse takes "-0.5,0.5,0,30" or "-1+0i" for an option; each such
    # value must give the document of its --opt=value form.  HALF is
    # 1 - 2^{-s}/2, whose zeros lie on Re s = -1, s0 = -1 among them.
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"kind": "explicit", "coeffs": [[1, 1.0, 0.0], [2, -0.5, 0.0]]}))
    argv = [str(half) if a == "HALF" else a for a in argv]
    i = next(i for i, a in enumerate(argv) if a[:2] in ("-0", "-1"))
    joined = argv[: i - 1] + [argv[i - 1] + "=" + argv[i]] + argv[i + 1 :]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(joined)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["recur", "--series", "eta-factor", "--s0", "1+2j", "--r", "0.05",
          "--T", "1"], "complex values use the form a+bi: '1+2j'"),
        (["truncate", "--series", "zeta", "--s", "1e400", "--k", "2"],
         "complex values must be finite: '1e400'"),
    ],
)
def test_complex_option_messages_reach_stderr(argv, text):
    code, out, err = run_cli(argv)
    assert code == 64 and out == ""
    assert err.startswith("dlab: usage:") and text in err


def test_zeta_label_in_a_file_is_only_a_name(tmp_path):
    # The zeta step cap belongs to the builtin zeta series, not its label.
    spec = {"kind": "explicit", "coeffs": [[1, 1.0, 0.0], [2, -2.0, 0.0]],
            "label": "zeta"}
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(spec))
    argv = ["moment", "--series", str(path), "--sigma", "1.0", "--T", "50",
            "--step", "0.1"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["target"] == 2.0
    code, _, err = run_cli(["moment", "--series", "zeta", "--sigma", "0.75",
                            "--T", "50", "--step", "0.1"])
    assert code == 1 and "step must be <= 0.05" in err


def test_coefficient_past_float_range_is_not_a_traceback(tmp_path):
    # |a_2|^2 = 1e400 overflows a float; the growth base becomes inf.
    spec = {"kind": "multiplicative", "prime_powers": [[2, 1, 1e200, 0.0]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    argv = ["truncate", "--series", str(path), "--s", "2", "--k", "2"]
    for extra in ([], ["--M", "10"]):
        code, out, err = run_cli(argv + extra)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["value"] == {"re": 2.5e199, "im": 0.0}


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "explicit"},
        {"kind": "explicit", "coeffs": [[1, 1.0]]},
        {"kind": "builtin"},
        {"kind": "multiplicative", "prime_powers": [[2, 1, "x", 0]]},
        {"kind": "explicit", "coeffs": [[1, 1, 0]], "sigma_m": "abc"},
    ],
    ids=["no-coeffs", "short-row", "no-name", "text-value", "text-sigma"],
)
def test_malformed_coefficient_file_is_a_precondition(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = ["truncate", "--series", str(path), "--s", "2", "--k", "2"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition:") and err.count("\n") == 1


def test_recur_horizon_below_one_is_a_precondition():
    argv = ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
            "--T", "0.5"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition:") and err.count("\n") == 1


def test_accuracy_warning_is_one_dlab_line():
    argv = ["density", "--series", "zeta", "--sigma-list", "0.4,0.6",
            "--T", "100", "--format", "csv"]
    outs = []
    for threads in ("1", "2"):
        code, out, err = run_cli(argv + ["--threads", threads])
        assert code == 0
        assert err == "dlab: warning: accuracy not guaranteed\n"
        outs.append(out)
    assert outs[0] == outs[1] and "warning" not in outs[0]


def test_warnings_are_sorted_dlab_lines_and_a_failure_prints_only_its_error(
    monkeypatch,
):
    # Under a fresh process's filters, where a RuntimeWarning is shown, not
    # raised: every recorded message becomes one `dlab: warning:` line.
    def noisy(fail):
        def handler(args, threads):
            warnings.warn("b", AccuracyWarning)
            warnings.warn("a", RuntimeWarning)
            warnings.warn("b", AccuracyWarning)
            if fail:
                raise NumericalError("boom")
            return {"rows": []}, "t-horizon,estimate,target,error", []
        return handler

    argv = ["flow", "--suite", "standard", "--T", "1"]
    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        monkeypatch.setattr(cli, "_cmd_flow", noisy(False))
        assert run_cli(argv)[::2] == (0, "dlab: warning: a\ndlab: warning: b\n")
        monkeypatch.setattr(cli, "_cmd_flow", noisy(True))
        assert run_cli(argv) == (2, "", "dlab: numerical: boom\n")


def test_the_parser_is_built_once_per_process():
    # run finds a subcommand's handler by name when it dispatches, so one
    # parser serves every run, and a patched handler is still the one run.
    parser = cli._build_parser()
    assert run_cli(["flow", "--box", "0,0.5", "--T", "10"])[0] == 0
    assert cli._build_parser() is parser


@pytest.mark.parametrize(
    "argv, code, line",
    [
        # 2 r^2 past the float range: the disc lattice's x^2 + y^2.
        (["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "1e155",
          "--T", "2"], 1, "dlab: precondition: disc radius"),
        (["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "1e154",
          "--T", "2"], 1, "dlab: precondition: disc radius"),
        # zeta's correction terms pass the float range at Re s = 1e300.
        (["moment", "--series", "zeta", "--sigma", "1e300", "--T", "10"], 2,
         "dlab: numerical: "),
        # The top node passes zeta's term cap: refused before any window.
        (["moment", "--series", "zeta", "--sigma", "0.75", "--T", "8e7",
          "--step", "0.05"], 1, "dlab: precondition: zeta at |Im s| = 8e+07 "),
        # The first call, the corners with the inner points of the bottom
        # and top, reaches Re s = 1e9: N doubles past zeta's term cap for
        # the real parts, and the line names them, not the height.
        (["zeros", "--series", "zeta", "--rect", "0.5,1e9,10,11", "--step", "1e5"], 1,
         "dlab: precondition: zeta at max Re s = 1e+09: "),
    ],
    ids=["recur-r-1e155", "recur-r-1e154", "zeta-sigma-1e300", "zeta-T-8e7", "zeta-re-1e9"],
)
def test_failure_is_one_dlab_line(argv, code, line):
    got, out, err = run_cli(argv)
    assert got == code and out == ""
    assert err.startswith(line) and err.count("\n") == 1


def test_huge_flow_horizon_is_refused_before_allocating():
    # 1e302 grid points: the window count is checked before any window.
    for extra in ([], ["--step", "1e-10"]):
        code, out, err = run_cli(["flow", "--suite", "standard", "--T", "1e300"]
                                 + extra)
        assert code == 1 and out == ""
        assert err.startswith("dlab: precondition:") and err.count("\n") == 1


def test_huge_recur_horizon_is_refused_before_allocating():
    # 2e302 grid times, then a T/t_step that overflows to infinity: both are
    # refused before the time grid is built.
    argv = ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
            "--T", "1e300"]
    for extra in ([], ["--t-step", "1e-10"]):
        code, out, err = run_cli(argv + extra)
        assert code == 1 and out == ""
        assert err.startswith("dlab: precondition:") and err.count("\n") == 1


def test_huge_moment_grid_is_refused_before_allocating():
    argv = ["moment", "--series", "eta-factor", "--sigma", "1", "--T", "1e300"]
    for extra in ([], ["--step", "1e-10"]):
        code, out, err = run_cli(argv + extra)
        assert code == 1 and out == ""
        assert err.startswith("dlab: precondition:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--series", "builtin:eta-factor", "--rect", "0.5,1.5,-1,1e300"],
        ["density", "--series", "eta-factor", "--sigma-list", "0.9", "--T", "1e300"],
        ["density", "--series", "eta-factor", "--sigma-list", "0.9", "--T", "5",
         "--sigma-hi", "1e300"],
        ["zeros", "--series", "zeta", "--rect", "0.5,1.5,10,20", "--step", "1e-320"],
        ["zeros", "--series", "builtin:eta-factor", "--rect", "0.5,1.5,-1,1e9"],
    ],
)
def test_huge_rectangle_boundary_is_refused_before_allocating(argv):
    # 1e302 boundary points, an edge/step that overflows to infinity, and a
    # 1.46 TiB boundary: each is counted and refused before any is built.
    # Zeta has no certificate, so its edges start at --step; eta-factor's
    # start at its certified spacing whatever --step is.
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--series", "divisor_2", "--sigma", "1.5", "--T", "10",
         "--N", "10000000000"],
        ["mollify", "--series", "zeta", "--sigma", "0.75", "--X-list", "10",
         "--N", "10000000000"],
        ["zeros", "--series", "zeta", "--rect", "0.6,0.7,1e10,1.0000001e10"],
    ],
    ids=["moment-N", "mollify-N", "zeta-height"],
)
def test_huge_term_count_is_refused_before_allocating(argv):
    # 1e10 terms (a truncation, an inverse) and zeta's 2.9e9 (its
    # N = ceil(|Im s| / 3.5)) are past the 20,000,000-term cap and refused
    # before any table is built.
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition:") and err.count("\n") == 1


@pytest.mark.parametrize("k, T", [("2000", "10"), ("505", "5000")])
def test_moment_past_float_range_is_numerical(k, T):
    # |1 - 2^{1-s}|^{2k} reaches 2^{2k} on the line sigma = 1: at k = 2000
    # the power is inf; at k = 505 each window's sum is finite but their
    # total passes the float range.
    argv = ["moment", "--series", "eta-factor", "--sigma", "1", "--T", T,
            "--k", k]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("dlab: numerical:") and err.count("\n") == 1


def _explicit_file(tmp_path, pairs):
    path = tmp_path / "explicit.json"
    coeffs = [[n, a, 0.0] for n, a in pairs]
    path.write_text(json.dumps({"kind": "explicit", "coeffs": coeffs}))
    return str(path)


def _refuse_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sigma, k", [("200", "1"), ("500", "2")])
def test_moment_target_past_float_range_is_null(tmp_path, fmt, sigma, k):
    # |a_2|^2 = 1e400 overflows: in the target's squares at k = 1, and in
    # the convolution square's a_2 a_2 at k = 2, so the target has no float
    # value.  The estimate (about 3.9e279, and 8.7e197) is finite.
    path = _explicit_file(tmp_path, [(1, 1.0), (2, 1e200), (3, 1.0)])
    argv = ["moment", "--series", path, "--sigma", sigma, "--k", k,
            "--T", "10", "--format", fmt]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    if fmt == "csv":
        assert out.split("\n")[1].endswith(",,")
        return
    result = json.loads(out, parse_constant=_refuse_constant)["result"]
    assert result["target"] is None and result["rel_error"] is None
    assert 1e197 < result["estimate"] < 1e280


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "pairs, extra",
    [
        # finite squares 1.69e308 n^{-1.02} whose sum overflows
        ([(1, 1.0)] + [(p, 1.3e154) for p in (2, 3, 5, 7)],
         ["--sigma", "0.51", "--X-list", "1", "--N", "10"]),
        # |a_2|^2 overflows, and so do the inverse's entries
        ([(1, 1.0), (2, 1e200), (3, 1.0)],
         ["--sigma", "0.75", "--X-list", "1,2", "--N", "100"]),
        # a finite inverse whose mollified tail overflows
        ([(1, 1.0), (2, 1e200)], ["--sigma", "0.75", "--X-list", "1", "--N", "2"]),
    ],
    ids=["sum", "squares", "finite-inverse"],
)
def test_mollify_past_float_range_is_numerical(tmp_path, pairs, extra):
    path = _explicit_file(tmp_path, pairs)
    code, out, err = run_cli(["mollify", "--series", path] + extra)
    assert code == 2 and out == ""
    assert err == "dlab: numerical: the mollified tail is not a finite float\n"


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_recur_grid_below_one_is_a_precondition(grid):
    argv = ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
            "--T", "3", "--grid", grid]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err == "dlab: precondition: recurrence scan needs grid >= 1\n"


def test_huge_recur_disc_grid_is_refused_before_allocating():
    # 1e14 lattice points: refused by the size check, before any is built.
    argv = ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
            "--T", "3", "--grid", "10000000"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("dlab: precondition: disc grid 10000000 needs more than")
    assert err.count("\n") == 1


def test_huge_character_modulus_is_refused_before_its_table():
    argv = ["moment", "--series", "character_100000000_1", "--sigma", "1", "--T", "1"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err == "dlab: precondition: character modulus must be <= 1000000\n"


@pytest.mark.parametrize("name", ["character_5_x", "character_y_1"])
def test_bad_character_name_is_a_precondition(name):
    argv = ["moment", "--series", name, "--sigma", "1", "--T", "10"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err == "dlab: precondition: bad character modulus or index in %r\n" % name


def test_malformed_list_option_is_a_usage_error_before_the_series():
    code, out, err = run_cli(["zeros", "--series", "nope", "--rect", "1,2"])
    assert code == 64 and out == ""
    assert err.startswith("dlab: usage: argument --rect:") and err.count("\n") == 1


def _replay_argv(doc):
    """The argv that the config block of a JSON document records."""
    cfg = dict(doc["config"])
    argv = [cfg.pop("subcommand")]
    for key, value in sorted(cfg.items()):
        if value is None:
            continue
        flag = "--format" if key == "output" else "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        elif isinstance(value, dict):
            value = "{re!r}{im:+}i".format(**value)
        argv.append("%s=%s" % (flag, value))
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        MOMENT_ETA,
        ["zeros", "--series", "builtin:eta-factor", "--rect", "0.5,1.5,8.5,9.5"],
        ["density", "--series", "eta-factor", "--sigma-list", "0.9", "--T", "50"],
        ["flow", "--suite", "standard", "--T", "100"],
        ["flow", "--T", "100", "--box", "0.1,0.4,0.2,0.9"],
        ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
         "--T", "5", "--t-step", "0.01"],
        ["mollify", "--series", "zeta", "--sigma", "0.75", "--X-list", "10,100",
         "--N", "10000"],
        ["truncate", "--series", "zeta", "--s", "1.5+2i", "--k", "3"],
    ],
)
def test_document_replays_from_its_config_block(argv):
    code, out, err = run_cached(argv)
    assert code == 0 and err == ""
    replay = _replay_argv(json.loads(out))
    assert run_cli(replay) == (0, out, "")


def test_moment_bits_independent_of_blas_threads():
    # OpenBLAS rounds its one-thread and threaded matrix products
    # differently; unpinned, this moment's estimate read 1.0906806989826843
    # at one BLAS thread and 1.090680698982684 at two on a 2-vCPU Xeon VM.
    # dlab pins BLAS to one thread at its first run.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = [sys.executable, "-m", "dirichlet_lab.cli", "moment", "--series",
            "character_12_2", "--sigma", "1", "--T", "100", "--N", "20000"]
    docs = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        docs.append(proc.stdout)
    assert docs[0] == docs[1]


# The package's public names, as listed before its __all__ was built from
# the modules' lists.
PUBLIC_NAMES = [
    "AccuracyWarning", "Box", "CoefficientSource", "ExplicitSource", "FlowConfig",
    "MomentReport", "MultiplicativeSource", "NumericalError", "PreconditionError",
    "QuadratureConfig", "Rectangle", "RecurrenceReport", "SeriesSpec", "SmoothSet",
    "TorusPoint", "ZeroRecord", "box_hitting_fraction", "box_hitting_fractions",
    "builtin_series", "convolution_power", "default_evaluator", "density_table",
    "dirichlet_convolve", "estimate_moment", "factorize", "first_primes",
    "identity_coefficients", "inverse_coefficients", "load_source", "log_frequencies",
    "mollifier_coefficients", "mollifier_tail_decay", "recurrence_scan",
    "resolve_threads", "rouche_verify", "smooth_enumerate", "smooth_truncation_eval",
    "standard_box_suite", "tail_norm", "theoretical_target", "twisted_eval",
    "winding_count", "winding_on_circle", "zero_scan", "zeta_eval", "zeta_values",
]


def test_star_import_gives_the_public_names():
    import dirichlet_lab

    namespace = {}
    exec("from dirichlet_lab import *", namespace)
    assert len(PUBLIC_NAMES) == 46 and dirichlet_lab.__all__ == PUBLIC_NAMES
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        module = getattr(dirichlet_lab, namespace[name].__module__.rpartition(".")[2])
        assert name in module.__all__ and getattr(module, name) is namespace[name]

