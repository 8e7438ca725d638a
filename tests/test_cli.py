import json
import subprocess
import sys

import pytest

from incmac.cli import main
from incmac.core import TIGHT, ShuParams
from incmac.expansions import _alternating_small_t
from incmac.gamma import macdonald_k
from incmac.verification import run_verification

from frozen import S0_3_3, S_SPLIT_TAIL


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEval:
    def test_prints_frozen_value_with_full_digits(self, capsys):
        code, out, _ = _run(capsys, "eval", "--nu", "0", "--z", "3", "--t", "3")
        assert code == 0
        value_field = out.split()[0]
        assert value_field.startswith("value=")
        digits = value_field.split("=")[1]
        mantissa = digits.lstrip("-0.").replace(".", "")
        assert len(mantissa) >= 12
        assert abs(float(digits) - S0_3_3) < 1e-11 * S0_3_3

    def test_json_object_schema(self, capsys):
        # both series miss the target here and the oracle runs
        code, out, _ = _run(
            capsys, "eval", "--nu=-0.0035698091700417933", "--z", "0.7888472780221482", "--t", "7.084354778849424",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"value", "error_estimate", "method", "work"}
        assert obj["method"] == "Oracle5"

    @pytest.mark.parametrize("point", sorted(S_SPLIT_TAIL))
    def test_small_argument_estimate_covers_reference(self, capsys, point):
        # the split form's terms rise again towards the pole at k = -nu here
        nu, z, t = point
        code, out, _ = _run(capsys, "eval", f"--nu={nu!r}", "--z", repr(z), "--t", repr(t), "--method", "small-z", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "SeriesSmallZ"
        assert abs(obj["value"] - S_SPLIT_TAIL[point]) <= obj["error_estimate"]

    def test_flags_shown_only_when_set(self, capsys):
        # S underflows here: evaluate returns the flagged 0.0
        _, out, _ = _run(capsys, "eval", "--nu", "3", "--z", "50", "--t", "0.01")
        assert out.split()[-1] == "flags=underflow_to_zero"
        _, out, _ = _run(capsys, "eval", "--nu", "3", "--z", "50", "--t", "0.01", "--json")
        obj = json.loads(out)
        assert (obj["value"], obj["error_estimate"]) == (0.0, 0.0)
        assert obj["flags"] == ["underflow_to_zero"]
        _, out, _ = _run(capsys, "eval", "--nu", "0", "--z", "3", "--t", "3")
        assert "flags" not in out

    def test_domain_error_names_flag(self, capsys):
        code, out, err = _run(capsys, "eval", "--nu", "1", "--z", "-2", "--t", "1")
        assert code == 2
        assert "--z" in err

    def test_subnormal_argument(self, capsys):
        code, out, _ = _run(capsys, "eval", "--nu", "0", "--z", "5e-324", "--t", "1", "--json")
        assert code == 0
        assert abs(json.loads(out)["value"] - 744.44631146984191462607943659) < 1e-12 * 744.5
        code, out, _ = _run(capsys, "kfun", "--nu", "0", "--z", "5e-324", "--json")
        assert code == 0
        assert abs(json.loads(out)["value"] - 744.556003437039674762918018477) < 1e-12 * 744.6

    def test_large_endpoint_matches_kfun(self, capsys):
        _, out_eval, _ = _run(capsys, "eval", "--nu", "0", "--z", "3", "--t", "1e6", "--json")
        _, out_k, _ = _run(capsys, "kfun", "--nu", "0", "--z", "3", "--json")
        v1 = json.loads(out_eval)["value"]
        v2 = json.loads(out_k)["value"]
        assert abs(v1 - v2) <= 1e-12 * abs(v2)

    def test_method_selector(self, capsys):
        code, out, _ = _run(
            capsys, "eval", "--nu", "1", "--z", "3", "--t", "0.2", "--method", "oracle", "--json"
        )
        assert json.loads(out)["method"] == "Oracle5"
        code, out, _ = _run(
            capsys, "eval", "--nu", "1", "--z", "3", "--t", "0.2", "--method", "small-t", "--json"
        )
        assert json.loads(out)["method"] == "SeriesSmallT"

    @pytest.mark.parametrize(
        "point",
        [
            # the alternating sum alone printed -6.4e-22 +- 3.6e-19 here
            ("--nu=-21.938145353255926", "--z", "107.45639840020016", "--t", "51.384890733336015"),
            # and did not converge within 200 terms here
            ("--nu=5.254836368613567", "--z", "230.86627495607647", "--t", "212.38346551646225"),
        ],
    )
    def test_small_t_method_prints_what_eval_prints(self, capsys, point):
        code, out, _ = _run(capsys, "eval", *point)
        assert (code, out.split(" ")[2]) == (0, "method=SeriesSmallT")
        assert _run(capsys, "eval", *point, "--method", "small-t") == (0, out, "")

    def test_tol_flag_accepted(self, capsys):
        code, out, _ = _run(
            capsys, "eval", "--nu", "0", "--z", "3", "--t", "3", "--tol", "1e-8", "--json"
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - S0_3_3) < 1e-7 * S0_3_3
        for bad in ("-1", "nan", "inf", "1e-16"):
            code, _, err = _run(
                capsys, "eval", "--nu", "0", "--z", "3", "--t", "3", "--tol", bad
            )
            assert code == 2, bad
            assert "--tol" in err, bad

    def test_nonconvergence_exit_three(self, capsys):
        code, out, err = _run(
            capsys, "eval", "--nu", "0", "--z", "1", "--t", "0.02", "--method", "small-z"
        )
        # hostile cancellation region: the series cannot reach the target
        assert code in (0, 3)  # NonConvergence surfaces as 3 when raised
        if code == 3:
            assert "converge" in err.lower()

    def test_oracle_underflowed_argument_exit_three(self, capsys):
        # z^2/4 is 0.0 in doubles; the oracle refuses before any setup
        code, out, err = _run(
            capsys, "eval", "--nu=-1", "--z", "1e-170", "--t", "1", "--method", "oracle"
        )
        assert code == 3
        assert out == ""
        assert err == "incmac: did not converge: z^2/4 underflows to 0 at z = 1e-170; no quadrature form applies\n"

    @pytest.mark.parametrize(
        "nu, z, why",
        [
            ("-1", "1e-170", "0 at z = 1e-170, t = 1.0; the U recurrence needs a normal x0"),
            ("0.5", "1e-170", "0 at z = 1e-170, t = 1.0; the U recurrence needs a normal x0"),
            # above x0 + 1 the alternating sum runs first
            ("2", "1e-170", "0 at z = 1e-170, t = 1.0; the small-t series has no terms"),
            # a subnormal z^2/4t: the positive-term sum raised a bare
            # OverflowError, which named no point
            ("1", "1e-161", "2.47e-323 at z = 1e-161, t = 1.0; the U recurrence needs a normal x0"),
        ],
    )
    def test_small_t_underflowed_argument_exit_three(self, capsys, nu, z, why):
        # z^2/4t is 0.0 or subnormal in doubles; both sums refuse, and the
        # error of the sum run first is printed
        code, out, err = _run(
            capsys, "eval", f"--nu={nu}", "--z", z, "--t", "1", "--method", "small-t"
        )
        assert code == 3
        assert out == ""
        assert err == f"incmac: did not converge: z^2/4t underflows to {why}\n"

    def test_oracle_integrand_past_double_range_exit_three(self, capsys):
        # form 5's integrand passes the double range here while S does not
        code, out, err = _run(
            capsys, "eval", "--nu=-1", "--z", "3e-161", "--t", "1", "--method", "oracle"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("incmac: did not converge: the form-5 integrand exceeds the double range")

    def test_oracle_y_peak_rounding_to_zero_exit_three(self, capsys):
        # z^2/4t underflows and the y-form peak's difference rounds to 0:
        # exit 3, not a traceback
        code, out, err = _run(
            capsys, "eval", "--nu=-2.5", "--z", "1e-111", "--t", "1e103", "--method", "oracle"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("incmac: did not converge: the form-5 integrand exceeds the double range")

    def test_oracle_underflowing_y_peak_exit_three(self, capsys):
        code, out, err = _run(
            capsys, "eval", "--nu=-1e17", "--z", "3e-154", "--t", "1e300", "--method", "oracle"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("incmac: did not converge: the y-form peak is not finite")

    def test_large_t_underflowing_coefficient_exit_three(self, capsys):
        # the leading correction e^-771 underflows, while the tail bound
        # e^-349 is far from negligible: no sum of zeros, and the K form's
        # partial sums pass the double range
        code, out, err = _run(
            capsys, "eval", "--nu=-300", "--z", "700", "--t", "30", "--method", "large-t"
        )
        assert code == 3
        assert out == ""
        assert err == "incmac: did not converge: partial sum overflows at term 120\n"

    def test_large_t_overflowing_coefficient_exit_three(self, capsys):
        # the leading correction e^938 passes the double range, while S is
        # below e^-8e9: exit 3, not a bare math range error
        args = ("eval", "--nu", "100", "--z", "1e6", "--t", "30")
        code, out, err = _run(capsys, *args, "--method", "large-t")
        assert (code, out) == (3, "")
        assert err == "incmac: did not converge: partial sum overflows at term 36\n"
        code, out, _ = _run(capsys, *args)
        assert code == 0
        assert out.endswith("flags=underflow_to_zero\n")

    def test_small_t_value_past_double_range_names_point(self, capsys):
        # S itself passes the double range: the positive-term sum left
        # through its own exp, which printed a bare "math range error"
        code, out, err = _run(capsys, "eval", "--nu=-600", "--z", "100", "--t", "500", "--method", "small-t")
        assert (code, out) == (3, "")
        assert err == (
            "incmac: overflow: a value exceeded the double range (the series exceeds the double range at "
            "ShuParams(order=-600.0, argument=100.0, endpoint=500.0): ln = 871.163 > ln DBL_MAX)\n"
        )

    def test_small_t_overflowing_sum_exit_three(self, capsys):
        # the sum in positive terms, about e^t, passes the double range at
        # nu <= x0 + 1 = 9.0: exit 3, where the JSON printed Infinity and
        # exited 0
        args = ("eval", "--nu", "8.5", "--z", "165", "--t", "850")
        code, out, err = _run(capsys, *args, "--method", "small-t", "--json")
        assert (code, out) == (3, "")
        assert err == (
            "incmac: did not converge: the U recurrence's sum exceeds the double range at ShuParams(order="
            "8.5, argument=165.0, endpoint=850.0)\n"
        )
        code, out, _ = _run(capsys, *args, "--json")
        assert code == 0
        assert json.loads(out)["method"] == "AsymptLargeT"
        # the sum passed the double range here too, at order 29.45; above
        # x0 + 1 = 12.6 the reflected point's sum is a flagged zero and the
        # value K, which AsymptLargeT returns alone
        args = ("eval", "--nu", "29.45003793017056", "--z", "202.59283805234966", "--t", "881.9254053650693")
        code, out, _ = _run(capsys, *args, "--method", "small-t", "--json")
        assert code == 0
        auto = _run(capsys, *args, "--json")[1]
        assert json.loads(out)["value"] == json.loads(auto)["value"]

    @pytest.mark.parametrize(
        "argv,cause",
        [
            (("eval", "--nu", "7332089645225821.0", "--z", "1.210441590872863e-137", "--t", "2.0270014274809116e+56"),
             "overflow"),
            (("kfun", "--nu", "7332089645225821.0", "--z", "1.210441590872863e-137"), "overflow"),
            (("eval", "--nu=-8290637012635042.0", "--z", "5.4871379322397784e-154", "--t", "9.633186336726054e+301"),
             "overflow"),
            (("eval", "--nu=-1e17", "--z", "3e-154", "--t", "1e300"), "overflow"),
            (("eval", "--nu=-28.259686302983116", "--z", "2.053303216910036e-161", "--t", "1.8648865660673147e+287"),
             "overflow"),
        ],
    )
    def test_extreme_points_exit_three(self, capsys, argv, cause):
        # the first three raised a bare ZeroDivisionError or ValueError, a
        # traceback and exit 1; the fourth named the oracle, not S's size,
        # and so did the fifth, S about K ~ 1e4550, where z^2/4 is subnormal
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"incmac: {cause}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--nu=-2.3", "--z", "1e-310", "--t", "60", "--method", "small-z"),
            ("--nu=-40.5", "--z", "1e-12", "--t", "0.5", "--method", "small-z"),
        ],
    )
    def test_overflowing_series_names_point_and_log(self, capsys, argv):
        # the incomplete-gamma sums' one exp printed a bare "math range error"
        code, out, err = _run(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("incmac: overflow: a value exceeded the double range (the series exceeds the double range at ShuParams(")
        assert "> ln DBL_MAX)" in err

    def test_small_t_prints_the_first_sum_error(self, capsys):
        # both small-endpoint sums raise here: the positive-term sum's error
        # is printed, and the alternating sum's overflow still names the
        # point and its log
        argv = ("eval", "--nu=-30", "--z", "1e-20", "--t", "1e-3", "--method", "small-t")
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "incmac: did not converge: the U recurrence needs a start index above 1024 at "
            "x0 = 2.4999999999999996e-38, t = 0.001\n"
        )
        with pytest.raises(OverflowError, match=r"the series exceeds the double range at ShuParams\(.*> ln DBL_MAX"):
            _alternating_small_t(ShuParams(-30.0, 1e-20, 1e-3), TIGHT)

    def test_large_negative_order_prints_flagged_zero(self, capsys):
        # core's upper bound puts S below e^-4800 here
        code, out, err = _run(capsys, "eval", "--nu=-300", "--z", "700", "--t", "30")
        assert code == 0
        assert out == "value=0 error_estimate=0.000e+00 method=SeriesSmallT work=0 flags=underflow_to_zero\n"

    def test_value_past_double_range_exit_three(self, capsys):
        # S is about e^779 here: the overflow rule names the bound
        code, out, err = _run(
            capsys, "eval", "--nu=-68.84652357362076", "--z", "1.0155572616677997e-06", "--t", "0.0446501653030621"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("incmac: overflow") and "ln S >= " in err

    def test_overflow_exit_three(self, capsys):
        # K_200(0.001) exceeds the double range, so the small-argument
        # series that subtracts from it overflows
        code, out, err = _run(
            capsys, "eval", "--nu", "200", "--z", "0.001", "--t", "1", "--method", "small-z"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("incmac: overflow")
        assert err.count("\n") == 1


def test_usage_error_is_exit_code_one():
    # argparse failures must exit 1 (2 is reserved for domain errors)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--nu", "0", "--z", "3"])
    assert exc.value.code == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "incmac.cli", "eval", "--nu", "0.5", "--z", "2", "--t", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("value=")


class TestFigure:
    def test_fig1_monotone_columns_bounded_by_k(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = _run(capsys, "figure", "--id", "1", "--out", str(out), "--points", "24")
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["t", "S_n0", "S_n1", "S_n2", "S_n3"]
        assert len(rows) == 24
        for col, order in zip(range(1, 5), (0.0, 1.0, 2.0, 3.0)):
            values = [float(r[col]) for r in rows]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v < macdonald_k(order, 3.0) for v in values)

    def test_fig2_columns_eventually_decreasing(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        _run(capsys, "figure", "--id", "2", "--out", str(out), "--points", "24")
        header, rows = _parse_csv(out)
        assert header[0] == "x"
        for col in range(1, 5):
            tail = [float(r[col]) for r in rows[-8:]]
            assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_fig3_overlay_ordering(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        _run(capsys, "figure", "--id", "3", "--out", str(out), "--points", "12")
        header, rows = _parse_csv(out)
        assert header == [
            "t", "S_n0", "approx_n0", "S_n1", "approx_n1",
            "S_n2", "approx_n2", "S_n3", "approx_n3",
        ]
        first = rows[0]  # smallest endpoint
        dev1 = abs(float(first[3]) / float(first[4]) - 1.0)
        dev3 = abs(float(first[7]) / float(first[8]) - 1.0)
        assert dev3 < dev1

    def test_fig5_gap_shrinks_below_target(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        _run(capsys, "figure", "--id", "5", "--out", str(out), "--points", "16")
        header, rows = _parse_csv(out)
        for col, order in ((1, 0.0), (3, 1.0), (5, 2.0), (7, 3.0)):
            kval = macdonald_k(order, 3.0)
            gaps = [abs(float(r[col]) - kval) for r in rows]
            ts = [float(r[0]) for r in rows]
            resolvable = [g for g, t in zip(gaps, ts) if t <= 25.0]
            assert all(a > b for a, b in zip(resolvable, resolvable[1:]))
            assert all(g <= 1e-12 * kval for g, t in zip(gaps, ts) if t >= 40.0)

    def test_fig6_empty_approx_cells_at_pole(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        _run(capsys, "figure", "--id", "6", "--out", str(out), "--points", "10")
        header, rows = _parse_csv(out)
        for row in rows:
            x = float(row[0])
            if x <= 6.0:  # z <= 2t with t = 3
                assert row[2] == ""
            else:
                assert row[2] != ""
                # approximant within ~35% of the value well inside the domain
                if x > 12.0:
                    assert abs(float(row[1]) / float(row[2]) - 1.0) < 0.35

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _run(capsys, "figure", "--id", "4", "--out", str(a), "--points", "10")
        _run(capsys, "figure", "--id", "4", "--out", str(b), "--points", "10")
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_sweep(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code, _, _ = _run(capsys, "figure", "--id", "1", "--out", str(out), "--points", "1")
        assert code == 0
        header, rows = _parse_csv(out)
        assert len(rows) == 1 and float(rows[0][0]) == 0.05

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_rejects_fewer_than_one_point(self, tmp_path, capsys, points):
        out = tmp_path / "f.csv"
        code, stdout, err = _run(capsys, "figure", "--id", "1", "--out", str(out), f"--points={points}")
        assert code == 2
        assert stdout == ""
        assert err == f"incmac: domain error: --points: points={points}: must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("order", ["nan", "inf"])
    def test_rejects_a_non_finite_order_naming_orders(self, tmp_path, capsys, order):
        # the message named --nu, the flag of eval's order
        out = tmp_path / "f.csv"
        code, stdout, err = _run(capsys, "figure", "--id", "1", "--out", str(out), "--points", "3", f"--orders={order}")
        assert (code, stdout) == (2, "")
        assert err == f"incmac: domain error: --orders: orders={float(order)!r}: must be finite\n"
        assert not out.exists()

    def test_custom_orders(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        _run(capsys, "figure", "--id", "1", "--out", str(out), "--points", "4",
             "--orders", "0,0.5")
        header, rows = _parse_csv(out)
        assert header == ["t", "S_n0", "S_n0.5"]
        _run(capsys, "figure", "--id", "1", "--out", str(out), "--points", "4",
             "--orders=-1,1")
        header, rows = _parse_csv(out)
        assert header == ["t", "S_n-1", "S_n1"]


class TestTable:
    def test_cartesian_product_row_count(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = _run(
            capsys, "table", "--nu-list", "0,1,2", "--z-list", "1,3,8",
            "--t-list", "0.5,2,10", "--out", str(out),
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["nu", "z", "t", "value", "error_estimate", "method"]
        assert len(rows) == 27

    def test_singleton_reproduces_eval_bit_for_bit(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        _run(capsys, "table", "--nu-list", "0", "--z-list", "3", "--t-list", "3",
             "--out", str(out))
        _, rows = _parse_csv(out)
        code, out_eval, _ = _run(capsys, "eval", "--nu", "0", "--z", "3", "--t", "3", "--json")
        want = json.loads(out_eval)["value"]
        assert float(rows[0][3]) == want

    def test_large_endpoint_rows_use_asymptotic_method(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        _run(capsys, "table", "--nu-list", "0,1", "--z-list", "3", "--t-list", "1e4",
             "--out", str(out))
        _, rows = _parse_csv(out)
        assert all(r[5] == "AsymptLargeT" for r in rows)

    def test_error_marker_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = _run(
            capsys, "table", "--nu-list", "0", "--z-list=-3,3", "--t-list", "1",
            "--out", str(out),
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[0][5] == "ERROR:DomainError"
        assert rows[0][3] == ""
        assert rows[1][5] != ""

    def test_negative_first_order_in_equals_form(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = _run(
            capsys, "table", "--nu-list=-1,0", "--z-list", "3", "--t-list", "1",
            "--out", str(out),
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert [float(r[0]) for r in rows] == [-1.0, 0.0]
        assert all(r[5].startswith(("Series", "Oracle")) for r in rows)

    @pytest.mark.parametrize("nu_list", ["zero,1", ",", ""])
    def test_bad_order_list_names_flag(self, tmp_path, capsys, nu_list):
        out = tmp_path / "t.csv"
        code, _, err = _run(
            capsys, "table", f"--nu-list={nu_list}", "--z-list", "3", "--t-list", "1", "--out", str(out)
        )
        assert code == 2
        assert "--nu-list" in err
        assert not out.exists()

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        code, _, err = _run(capsys, "table", "--nu-list", "0", "--z-list", "3", "--t-list", "1", "--out", str(out))
        assert code == 1
        assert err.startswith("incmac: i/o error")

    def test_values_roundtrip_through_float(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        _run(capsys, "table", "--nu-list", "0.5", "--z-list", "2", "--t-list", "1",
             "--out", str(out))
        _, rows = _parse_csv(out)
        text = rows[0][3]
        assert f"{float(text):.17g}" == text


class TestVerify:
    def test_default_grid_passes_with_exit_zero(self, capsys):
        code, out, _ = _run(capsys, "verify")
        assert code == 0
        assert "verify: PASS" in out
        assert "ThreeForm" in out

    def test_json_schema_and_record_count(self, capsys):
        code, out, _ = _run(capsys, "verify", "--json")
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list)
        assert len(records) == len(run_verification())
        assert set(records[0]) == {"identity", "nu", "z", "t", "residual", "scale", "pass"}
        assert all(r["pass"] for r in records)
