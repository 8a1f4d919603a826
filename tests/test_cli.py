"""End-to-end tests for the command line interface (run in process)."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy import cli, fock, realizations
from gdoa_susy.cli import MAX_DIM, ConfigError, _parse_config, load_config, main
from gdoa_susy.numerics import Backend


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CV_HALF = {"algebra": {"type": "calogero_vasiliev", "kappa": "1/2"}}


# Spectra whose degenerate levels Z does not tell apart: six levels at E = 1
# carry only Z = -1 and 1, and the doublet (0, 1) sits at E = 0 with Z = 0.
SIX_FOLD_LEVEL = """\
spec: gdoa(F=n^2, f=1/n)  mu=0  n_max=6  verdict: unbroken
  n     E           Z           pair
  0     0           0           -
  1     1           -1          p1
  2     1           1           p1
  3     1           -1          p2
  4     1           1           p2
  5     1           -1          p3
  6     1           1           p3
"""
ZERO_DOUBLET = """\
spec: gdoa(F=n^2, f=n-1)  mu=1  n_max=6  verdict: unbroken
  n     E           Z           pair
  0     0           0           p0
  1     0           0           p0
  2     36          -36         p1
  3     36          36          p1
  4     400         -400        p2
  5     400         400         p2
  6     1764        -1764       -
"""


class TestConfigLoading:
    def test_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, CV_HALF))
        assert config.mus == (0, 1)
        assert config.dim == 64
        assert config.use_exact
        assert config.policy.absolute == 1e-12
        assert config.policy.relative == 1e-10
        assert config.output == "text"
        assert config.spec.is_calogero_vasiliev

    def test_full_gdoa_config(self, tmp_path):
        payload = {
            "algebra": {"type": "gdoa", "F": "bracket(n)", "params": {"kappa": "1/2"}},
            "f": "n",
            "mu": 1,
            "dim": 16,
            "backend": "float",
            "tolerance": {"absolute": 1e-9, "relative": 1e-8},
            "output": "csv",
        }
        config = load_config(write_config(tmp_path, payload))
        assert config.mus == (1,)
        assert config.dim == 16
        assert not config.use_exact
        assert config.policy.absolute == 1e-9
        assert config.output == "csv"

    def test_unknown_top_level_key(self, tmp_path):
        payload = dict(CV_HALF, extra=1)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_algebra_key(self, tmp_path):
        payload = {"algebra": {"type": "calogero_vasiliev", "kappa": 0, "x": 1}}
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, payload))

    def test_odd_dim_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="even integer"):
            load_config(write_config(tmp_path, dict(CV_HALF, dim=7)))

    def test_bool_dim_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="even integer"):
            load_config(write_config(tmp_path, dict(CV_HALF, dim=True)))

    def test_bad_mu(self, tmp_path):
        with pytest.raises(ConfigError, match="'mu'"):
            load_config(write_config(tmp_path, dict(CV_HALF, mu=3)))

    def test_bad_backend(self, tmp_path):
        with pytest.raises(ConfigError, match="'backend'"):
            load_config(write_config(tmp_path, dict(CV_HALF, backend="exact")))

    def test_bad_tolerance(self, tmp_path):
        payload = dict(CV_HALF, tolerance={"absolute": -1})
        with pytest.raises(ConfigError, match="nonnegative"):
            load_config(write_config(tmp_path, payload))

    def test_weight_on_deformed_oscillator_rejected(self, tmp_path):
        payload = dict(CV_HALF, f="n")
        with pytest.raises(ConfigError, match="'f' must be \"1\""):
            load_config(write_config(tmp_path, payload))


class TestExitCodes:
    def test_verify_passes(self, tmp_path, capsys):
        code = main(["verify", "--config", write_config(tmp_path, CV_HALF), "--dim", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "=> PASS (121 checks" in out

    def test_negative_kappa_is_config_error(self, tmp_path, capsys):
        payload = {"algebra": {"type": "calogero_vasiliev", "kappa": "-2"}}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert "F(n) > 0" in capsys.readouterr().err

    def test_invalid_structure_function_before_suites(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n - 2"}}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid structure function" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "absent.json")])
        assert code == 3
        assert "I/O error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["verify", "--config", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_syntax_error_in_expression(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n +"}}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2

    def test_strict_tolerance_fails(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "64",
                "--tolerance-abs",
                "1e-30",
                "--tolerance-rel",
                "0",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_tolerance_in_json(self, tmp_path, capsys, value):
        # json.dumps writes Infinity / NaN, which json.loads accepts.
        payload = dict(CV_HALF, tolerance={"absolute": value})
        code = main(["verify", "--config", write_config(tmp_path, payload), "--dim", "8"])
        assert code == 2
        assert "finite nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--tolerance-abs", "inf"), ("--tolerance-rel", "nan")])
    def test_non_finite_tolerance_flag(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path, CV_HALF)
        code = main(["verify", "--config", config, "--dim", "8", flag, value])
        assert code == 2
        assert "finite nonnegative" in capsys.readouterr().err

    def test_infinite_weight_is_beyond_the_double_range(self, tmp_path, capsys):
        # f overflows to inf in floats; this once printed PASS for every check
        # and exited 0, then failed every check (exit 1); the build now
        # refuses the inf energy and names the first level, as for an exact f
        payload = {"algebra": {"type": "gdoa", "F": "n"}, "f": "sqrt(n) * 10^200 * 10^200",
                   "dim": 16}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert ("f(2) or f(2)^2 F(2) is beyond the double range of the float backend"
                in captured.err)

    @pytest.mark.parametrize("mu, level", [(0, 2), (1, 1)])
    def test_nan_weight_is_named_as_nan(self, tmp_path, capsys, mu, level):
        # inf - inf is NaN at every level; NaN lies in no range, so the build
        # names the first level it reads as NaN, not as beyond the double range
        payload = {"algebra": {"type": "gdoa", "F": "n^2"},
                   "f": "sqrt(n) + 10^200*10^200 - 10^200*10^200", "dim": 8, "backend": "float"}
        code = main(["verify", "--config", write_config(tmp_path, payload), "--mu", str(mu)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: f({level}) is NaN on the float backend\n"

    # the CLI takes any even dim from 2, but the Jacobi suite's guard band 3
    # needs 4 levels: dim 2 exits 2 with the need stated, dim 4 runs
    @pytest.mark.parametrize("command", ["verify", "jacobi"])
    def test_dim_two_states_the_jacobi_guard_band_need(self, tmp_path, capsys, command):
        config = write_config(tmp_path, CV_HALF)
        code = main([command, "--config", config, "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: guard band 3 needs dim >= 4, got 2\n"
        assert main([command, "--config", config, "--dim", "4"]) == 0


class TestMalformedInput:
    """Input the program cannot use exits 2 with a message, never a traceback."""

    def _run(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["verify", "--config", str(path), "--dim", "8"])
        return code, capsys.readouterr().err

    def test_integer_tolerance_beyond_float_range(self, tmp_path, capsys):
        text = '{"algebra": {"type": "calogero_vasiliev", "kappa": "1/2"}, ' \
            '"tolerance": {"absolute": 1%s}}' % ("0" * 400)
        code, err = self._run(tmp_path, capsys, text)
        assert code == 2 and "finite nonnegative" in err

    @pytest.mark.parametrize(
        "source",
        ["(" * 3000 + "n" + ")" * 3000, "-" * 5000 + "n", "n" + " + n" * 3000],
        ids=["parentheses", "unary-minus", "operator-chain"],
    )
    def test_deeply_nested_structure_function(self, tmp_path, capsys, source):
        payload = {"algebra": {"type": "gdoa", "F": source}}
        code, err = self._run(tmp_path, capsys, json.dumps(payload))
        assert code == 2 and "nests deeper than" in err

    @pytest.mark.parametrize("source", ["n^" + "1" * 4400, "1" * 4400 + "*n"])
    def test_literal_beyond_digit_limit(self, tmp_path, capsys, source):
        payload = {"algebra": {"type": "gdoa", "F": source}}
        code, err = self._run(tmp_path, capsys, json.dumps(payload))
        assert code == 2 and "4400 digits" in err

    @pytest.mark.parametrize(
        "payload, message",
        [(dict(CV_HALF, dim=10**300), f"even integer in [2, {MAX_DIM}]"),
         ({"algebra": {"type": "gdoa", "F": "n^99999999"}, "dim": 8}, "power beyond")],
        ids=["dim", "exponent"],
    )
    def test_work_bound_exits_at_once(self, tmp_path, capsys, payload, message):
        # each used to run until killed: F evaluated level by level for ever,
        # or a power of over 10**8 bits computed in full
        started = time.perf_counter()
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert time.perf_counter() - started < 1.0
        assert code == 2 and message in capsys.readouterr().err

    def test_reduce_dim_above_ceiling(self, capsys):
        code = main(["reduce", "--kappa", "1/2", "--dim", str(MAX_DIM + 2)])
        assert code == 2 and "even integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algebra, weight, message",
        [({"type": "gdoa", "F": "10^400*n"}, "1", "F(1) is beyond the double range"),
         ({"type": "calogero_vasiliev", "kappa": 10**400}, "1", "F(1) is beyond"),
         # every level overflows: the mu = 0 build, which runs first, reads
         # f at the even levels only, so it names level 2
         ({"type": "gdoa", "F": "10^300*n"}, "10^300", "f(2) or f(2)^2 F(2) is beyond"),
         ({"type": "gdoa", "F": "n"}, "10^400", "f(2) or f(2)^2 F(2) is beyond"),
         # f and every charge fit a double, E = 10^320 n^2 does not: the H
         # diagonal raises OverflowError, and the build names the level
         ({"type": "gdoa", "F": "n^2"}, "10^160", "f(2) or f(2)^2 F(2) is beyond"),
         ({"type": "gdoa", "F": "n"}, "sqrt(n)*10^160", "f(2) or f(2)^2 F(2) is beyond")],
    )
    @pytest.mark.parametrize("backend", ["float", "exact-where-possible"])
    def test_values_beyond_the_double_range(self, tmp_path, capsys, algebra, weight, message,
                                            backend):
        # float(Fraction), or a float weight squared, used to raise
        # OverflowError out of the float build
        payload = {"algebra": algebra, "f": weight, "dim": 8, "backend": backend}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("mu, level", [(0, 6), (1, 7)])
    def test_overflow_names_a_level_of_the_build_parity(self, tmp_path, capsys, mu, level):
        # f(m)^2 F(m) = m^402 passes the double range from m = 6 on; a build
        # reads f at the levels m = mu (mod 2) only, so mu = 1 first fails at 7
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": "n^200", "dim": 16, "mu": mu}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == 2 and f"f({level}) or f({level})^2 F({level}) is beyond" in err

    def test_exact_values_whose_square_is_beyond_the_double_range(self, tmp_path, capsys):
        # E = 10^154 m^2 fits a double, E^2 does not: the exact re-check's
        # scale used to raise OverflowError; the float products overflow and fail
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": "10^77", "mu": 0, "dim": 8}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 1
        for name in ("standard/anticommutator-gives-h", "qform/anticommutator-gives-h",
                     "qform/commutator-gives-z"):
            assert f"PASS {name}  [diagonal-exact g=1]  residual=0.000e+00" in out

    def test_spectrum_prints_values_beyond_the_double_range(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "10^400*n"}, "dim": 8, "mu": 0}
        code = main(["spectrum", "--config", write_config(tmp_path, payload)])
        assert code == 0 and "2" + "0" * 400 in capsys.readouterr().out

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    def test_spectrum_value_beyond_digit_limit(self, tmp_path, capsys, output):
        # str() of a 5000-digit energy used to raise ValueError
        payload = {"algebra": {"type": "gdoa", "F": "10^2500*10^2500*n"}, "dim": 8}
        code = main(["spectrum", "--config", write_config(tmp_path, payload), "--output", output])
        assert code == 2 and "E(1) has too many digits" in capsys.readouterr().err

    @pytest.mark.parametrize("weight, message", [
        # inf - inf is nan, and round(nan) used to raise ValueError out of verify
        ("sqrt(n) + parity(10^200*10^200 - 10^200*10^200)",
         "parity of non-integer nan at n=1"),
        ("sqrt(n) + parity(10^200*10^200)",
         "float overflow at n=1: cannot convert float infinity to integer"),
    ], ids=["nan", "inf"])
    def test_non_finite_parity_argument(self, tmp_path, capsys, weight, message):
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": weight, "dim": 8,
                   "backend": "float"}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2 and capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "source, message",
        [("-10^2500*10^2500*n", "F(1) = (too many digits to print)"),
         ("n/(10^2500*10^2500)", "bits exceeds")],
        ids=["structure-violation", "radicand"],
    )
    def test_unprintable_value_in_error_message(self, tmp_path, capsys, source, message):
        # formatting the message used to raise ValueError (int-to-str limit)
        payload = {"algebra": {"type": "gdoa", "F": source}, "dim": 8}
        code = main(["verify", "--config", write_config(tmp_path, payload)])
        assert code == 2 and message in capsys.readouterr().err

    def test_rational_beyond_digit_limit(self, capsys):
        code = main(["reduce", "--kappa", "1" * 5000, "--dim", "8"])
        assert code == 2 and "too long" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"algebra": {"type": "calogero_vasiliev", "kappa": 1%s}}' % ("0" * 5000),
         "[" * 100000 + "]" * 100000],
        ids=["json-integer-digits", "json-nesting"],
    )
    def test_json_the_decoder_cannot_hold(self, tmp_path, capsys, text):
        code, err = self._run(tmp_path, capsys, text)
        assert code == 2 and "not valid JSON" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"algebra": "\xff"}')
        assert main(["verify", "--config", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err


class TestLevelRecord:
    # F(0..dim) is evaluated and validated once per command: the config's
    # spec keeps it, and an exact f(1..dim), for the realizations, their
    # exact variants and spectra, and for both families of a reduction.
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize(
        "algebra, weight",
        [(CV_HALF["algebra"], "1"), ({"type": "gdoa", "F": "n^2"}, "n")],
        ids=["cv", "gdoa"],
    )
    def test_structure_validated_once(self, tmp_path, capsys, monkeypatch, command, algebra,
                                      weight):
        calls = self._count_validations(monkeypatch)
        payload = {"algebra": algebra, "f": weight, "dim": 16}
        assert main([command, "--config", write_config(tmp_path, payload)]) == 0
        assert calls == [16]

    def test_reduce_validates_structure_once(self, capsys, monkeypatch):
        # the cv and gdoa specs of a reduction share one F
        calls = self._count_validations(monkeypatch)
        assert main(["reduce", "--kappa", "1/2", "--dim", "16"]) == 0
        assert calls == [16]

    @pytest.mark.parametrize("kappa", [[], ["--kappa", "3/2"]], ids=["config", "both"])
    def test_reduce_config_validates_structure_once(self, tmp_path, capsys, monkeypatch,
                                                    kappa):
        calls = self._count_validations(monkeypatch)
        config = write_config(tmp_path, dict(CV_HALF, dim=16))
        assert main(["reduce", "--config", config, *kappa]) == 0
        assert calls == [16]

    @pytest.mark.parametrize("command, levels", [("verify", 16), ("spectrum", 15)])
    def test_weight_evaluated_once(self, tmp_path, capsys, monkeypatch, command, levels):
        # both parity labels, and verify's exact variants, read f from the record
        calls = []
        original = fock._level_parts

        def counting(expr, start, stop, env, backend=Backend.EXACT):
            if start == 1:  # f is evaluated from level 1, F from level 0
                calls.append(stop - 1)
            return original(expr, start, stop, env, backend)

        monkeypatch.setattr(fock, "_level_parts", counting)
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": "n", "dim": 16}
        assert main([command, "--config", write_config(tmp_path, payload), "--mu", "both"]) == 0
        assert calls == [levels]

    def test_cv_verify_builds_through_cv_realization(self, tmp_path, capsys, monkeypatch):
        # one float build per parity; its exact variant writes only exact
        # charges and calls no public builder.  The name is patched where cli
        # and realizations look it up, as bench tracing does
        built = []
        original = realizations.cv_realization

        def counting(kappa, mu, dim, backend):
            built.append((mu, backend))
            return original(kappa, mu, dim, backend)

        for module in (cli, realizations):
            monkeypatch.setattr(module, "cv_realization", counting)
        payload = dict(CV_HALF, dim=16)
        assert main(["verify", "--config", write_config(tmp_path, payload), "--mu", "both"]) == 0
        assert built == [(0, Backend.FLOAT), (1, Backend.FLOAT)]

    @staticmethod
    def _count_validations(monkeypatch):
        calls = []
        original = fock._level_parts

        def counting(expr, start, stop, env, backend=Backend.EXACT):
            if start == 0:  # F is evaluated from level 0, f from level 1
                calls.append(stop - 1)
            return original(expr, start, stop, env, backend)

        monkeypatch.setattr(fock, "_level_parts", counting)
        return calls


class TestVerifyOutputs:
    def test_json_two_reports(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "16",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [report["mu"] for report in payload] == [0, 1]
        for report in payload:
            assert list(report.keys()) == [
                "spec",
                "mu",
                "dim",
                "backend",
                "checks",
                "pass",
                "elapsed_ms",
            ]
            assert report["spec"] == "calogero_vasiliev(kappa=1/2)"
            assert report["dim"] == 16
            assert report["pass"] is True
            assert len(report["checks"]) == 121
            prefixes = {check["name"].split("/", 1)[0] for check in report["checks"]}
            assert prefixes == {"standard", "qform", "hermitian", "jacobi"}

    def test_mu_override_single_report(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "16",
                "--mu",
                "1",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1 and payload[0]["mu"] == 1

    def test_csv_header_and_shape(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "16",
                "--output",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,name,paper_ref,guard_band,exactness,residual,pass"
        assert len(lines) == 1 + 2 * 121
        assert lines[1].startswith('0,standard/qdag-squared-zero,"(Q+)^2 = 0",0,')
        assert all(line.endswith(",true") for line in lines[1:])

    def test_determinism(self, tmp_path, capsys):
        argv = [
            "verify",
            "--config",
            write_config(tmp_path, CV_HALF),
            "--dim",
            "16",
            "--output",
            "json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        for report in first + second:
            report.pop("elapsed_ms")
        assert first == second


class TestSpectrumCommand:
    def test_csv_deformed_mu_both(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "8",
                "--nmax",
                "3",
                "--output",
                "csv",
            ]
        )
        assert code == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == 2
        mu0 = blocks[0].splitlines()
        assert mu0[0] == "n,E,Z,pair,verdict"
        assert mu0[1] == "0,0,0,-,unbroken"
        assert mu0[2] == "1,2,2,p1,unbroken"
        assert mu0[3] == "2,2,-2,p1,unbroken"
        mu1 = blocks[1].splitlines()
        assert mu1[1] == "0,3/2,3/2,p0,broken"
        assert mu1[2] == "1,3/2,-3/2,p0,broken"

    def test_csv_square_structure(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "mu": 1}
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, payload),
                "--dim",
                "8",
                "--nmax",
                "2",
                "--output",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "0,1,-1,p0,broken"
        assert lines[2] == "1,1,1,p0,broken"
        assert lines[3] == "2,9,-9,-,broken"

    def test_truncated_partner_printed_as_dash(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "8",
                "--nmax",
                "1",
                "--mu",
                "0",
                "--output",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # level 1's partner (2) lies beyond the window, so no pair id
        assert lines[2] == "1,2,2,-,unbroken"

    def test_default_nmax_is_dim_minus_two(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "8",
                "--mu",
                "0",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n_max"] == 6
        assert len(payload[0]["rows"]) == 7

    def test_nmax_out_of_range(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "8",
                "--nmax",
                "7",
            ]
        )
        assert code == 2
        assert "n_max" in capsys.readouterr().err

    def test_sqrt_weight_rejected(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n"}, "f": "sqrt(n)"}
        code = main(
            ["spectrum", "--config", write_config(tmp_path, payload), "--nmax", "3"]
        )
        assert code == 2
        assert "sqrt" in capsys.readouterr().err

    def test_text_output_shows_verdict(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "8",
                "--mu",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: unbroken" in out

    @pytest.mark.parametrize("family", [CV_HALF, {
        "algebra": {"type": "gdoa", "F": "n^3 + 2*n"}, "f": "n+1",
    }], ids=["cv", "gdoa"])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 8])
    def test_pair_labels_follow_the_doublets(self, tmp_path, capsys, family, mu, n_max):
        # mu = 0: (2k+1, 2k+2) is p{k+1}; mu = 1: (2k, 2k+1) is p{k}; a level
        # whose partner lies past n_max has no label
        expected = [None] * (n_max + 1)
        for k in range(n_max):
            low, label = (2 * k + 1, f"p{k + 1}") if mu == 0 else (2 * k, f"p{k}")
            if low + 1 <= n_max:
                expected[low] = expected[low + 1] = label
        argv = ["spectrum", "--config", write_config(tmp_path, family), "--dim", "10",
                "--mu", str(mu), "--nmax", str(n_max), "--output", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)[0]["rows"]
        assert [row["pair"] for row in rows] == expected

    @pytest.mark.parametrize("weight, mu, stdout, message", [
        ("1/n", 0, SIX_FOLD_LEVEL, "spectrum: mu=0 levels 1, 2, 3, 4, 5, 6 share one energy"),
        ("n-1", 1, ZERO_DOUBLET, "spectrum: mu=1 doublet (0, 1) is not split"),
    ], ids=["accidental", "unsplit"])
    def test_unresolved_degeneracy_exits_one(self, tmp_path, capsys, weight, mu, stdout,
                                             message):
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": weight, "mu": mu, "dim": 8}
        assert main(["spectrum", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(message)


def indented_spectrum_json(config, n_max):
    """The spectrum tables as json.dumps(..., indent=2) writes them."""
    tables = [realizations.spectrum_H(config.spec, mu, n_max) for mu in config.mus]
    return json.dumps([
        {"spec": t.spec.describe(), "mu": t.mu, "dim": config.dim, "n_max": t.n_max,
         "verdict": t.verdict, "rows": cli._spectrum_rows(t, realizations.degeneracy_pairs(t))}
        for t in tables
    ], indent=2) + "\n"


class TestSpectrumJson:
    @pytest.mark.parametrize("payload", [
        CV_HALF,
        {"algebra": {"type": "gdoa", "F": "n^3 + 2*n"}, "f": "n+1"},
        # describe() holds a tab and a no-break space, which JSON escapes
        {"algebra": {"type": "gdoa", "F": "n^2\t+\u00a0a*n", "params": {"a": "1/2"}}},
    ], ids=["cv", "gdoa", "escaped"])
    @pytest.mark.parametrize("n_max", [None, "0", "5"])
    def test_bytes_equal_the_indenting_encoder(self, tmp_path, capsys, payload, n_max):
        path = write_config(tmp_path, dict(payload, dim=12))
        argv = ["spectrum", "--config", path, "--mu", "both", "--output", "json"]
        assert main(argv + (["--nmax", n_max] if n_max else [])) == 0
        out = capsys.readouterr().out
        expected = indented_spectrum_json(load_config(path), 10 if n_max is None else int(n_max))
        assert out == expected
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_escaped_source_reads_back(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n^2\t+\u00a0a*n", "params": {"a": "1/2"}}}
        argv = ["spectrum", "--config", write_config(tmp_path, payload), "--output", "json",
                "--dim", "4", "--mu", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "\\t+\\u00a0a*n" in out
        assert json.loads(out)[0]["spec"] == "gdoa(F=n^2\t+\u00a0a*n, f=1, a=1/2)"

    def test_unprintable_energy_writes_nothing(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "10^2500*10^2500*n"}, "dim": 8}
        argv = ["spectrum", "--config", write_config(tmp_path, payload), "--output", "json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: E(1) has too many digits to print\n"


class TestReduceCommand:
    def test_flag_based(self, capsys):
        code = main(["reduce", "--kappa", "0", "--dim", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "=> PASS" in out

    def test_config_based(self, tmp_path, capsys):
        code = main(
            ["reduce", "--config", write_config(tmp_path, dict(CV_HALF, dim=8))]
        )
        assert code == 0
        assert "kappa=1/2" in capsys.readouterr().out

    def test_requires_kappa_or_config(self, capsys):
        code = main(["reduce"])
        assert code == 2
        assert "--kappa" in capsys.readouterr().err

    def test_gdoa_config_without_kappa_rejected(self, tmp_path, capsys):
        payload = {"algebra": {"type": "gdoa", "F": "n^2"}}
        code = main(["reduce", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert "calogero_vasiliev" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code = main(["reduce", "--kappa", "5/2", "--dim", "8", "--output", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == "5/2"
        assert payload["pass"] is True
        assert len(payload["entries"]) == 8
        assert all(entry["residual"] == 0.0 for entry in payload["entries"])

    def test_csv_output(self, capsys):
        code = main(["reduce", "--kappa", "1/2", "--dim", "8", "--output", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,operator,residual,exact"
        assert len(lines) == 9

    def test_odd_dim_rejected(self, capsys):
        code = main(["reduce", "--kappa", "0", "--dim", "7"])
        assert code == 2

    def test_non_finite_tolerance_flag(self, capsys):
        code = main(["reduce", "--kappa", "1/2", "--tolerance-abs", "inf"])
        assert code == 2
        assert "finite nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_negative_kappa_as_a_separate_token(self, capsys, output):
        # argparse reads "-3/7" as an option, not as a number; the flag binds it
        assert main(["reduce", "--kappa=-3/7", "--dim", "8", "--output", output]) == 0
        expected = capsys.readouterr()
        assert main(["reduce", "--kappa", "-3/7", "--dim", "8", "--output", output]) == 0
        assert capsys.readouterr() == expected
        assert "-3/7" in expected.out

    def test_negative_integer_kappa_fails_validation(self, capsys):
        assert main(["reduce", "--kappa", "-2", "--dim", "8"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid structure function: F(1) = -1 violates F(n) > 0\n")

    @pytest.mark.parametrize("argv", [["--kappa", "--dim", "8"], ["--dim", "8", "--kappa"]])
    def test_kappa_without_a_value(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", *argv])
        assert exc.value.code == 2
        assert "argument --kappa: expected one argument" in capsys.readouterr().err

    def test_help_takes_no_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--help", "-3/7"])
        assert exc.value.code == 0
        assert "--kappa" in capsys.readouterr().out

    def test_dash_digit_value_reaches_tolerance_validation(self, capsys):
        # "-1e-3" is no plain number for argparse either; the config rejects it
        assert main(["reduce", "--kappa", "1/2", "--tolerance-abs", "-1e-3"]) == 2
        assert "finite nonnegative" in capsys.readouterr().err

    def test_kappa_flag_over_config(self, tmp_path, capsys):
        # --kappa replaces the config's algebra; its other keys still hold
        config = write_config(tmp_path, dict(CV_HALF, dim=16))
        assert main(["reduce", "--kappa", "3/2", "--config", config]) == 0
        assert "kappa=3/2  dim=16" in capsys.readouterr().out

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_mu_flag_selects_entries(self, capsys, output):
        code = main(["reduce", "--kappa", "1/2", "--dim", "8", "--mu", "0", "--output", output])
        assert code == 0
        out = capsys.readouterr().out
        if output == "json":
            mus = [entry["mu"] for entry in json.loads(out)["entries"]]
        else:
            mus = [int(line.split("mu=")[1][0]) for line in out.splitlines() if " mu=" in line]
        assert mus == [0, 0, 0, 0]

    def test_config_mu_selects_entries(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(CV_HALF, dim=8, mu=1, output="csv"))
        assert main(["reduce", "--config", config]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1"] * 4


class TestJacobiCommand:
    def test_jacobi_only(self, tmp_path, capsys):
        code = main(
            [
                "jacobi",
                "--config",
                write_config(tmp_path, CV_HALF),
                "--dim",
                "16",
                "--mu",
                "0",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        checks = payload[0]["checks"]
        assert len(checks) == 96
        assert all(check["name"].startswith("jacobi/") for check in checks)


def strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity tokens RFC 8259 lacks."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    # E = 10^154 n^2 fits a double, E^2 does not: the float products overflow
    # and many residuals are nan.
    SQUARE_OVERFLOW = {"algebra": {"type": "gdoa", "F": "n^2"}, "f": "10^77", "mu": 0, "dim": 8}
    # f overflows to inf in floats: the build refuses its energies, no report
    INFINITE = {"algebra": {"type": "gdoa", "F": "n"}, "f": "sqrt(n) * 10^200 * 10^200",
                "mu": 1, "dim": 8}

    @pytest.mark.parametrize("command", ["verify", "jacobi"])
    def test_non_finite_residual_is_the_csv_string(self, tmp_path, capsys, command):
        path = write_config(tmp_path, self.SQUARE_OVERFLOW)
        assert main([command, "--config", path, "--output", "json"]) == 1
        (report,) = strict_json(capsys.readouterr().out)
        assert main([command, "--config", path, "--output", "csv"]) == 1
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        residuals = [check["residual"] for check in report["checks"]]
        assert len(residuals) == len(rows)
        assert {r for r in residuals if isinstance(r, str)} == {"nan"}
        for residual, row in zip(residuals, rows):
            text = row.split(",")[-2]
            assert residual == text if isinstance(residual, str) else residual == float(text)

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("command", ["verify", "jacobi"])
    def test_infinite_weight_exits_2_with_no_report(self, tmp_path, capsys, command, output):
        path = write_config(tmp_path, self.INFINITE)
        assert main([command, "--config", path, "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("f(1) or f(1)^2 F(1) is beyond the double range of the float backend"
                in captured.err)

    def test_reduce_infinite_entry_is_a_string(self, monkeypatch, capsys):
        # a wrong closed-form energy, E_m + kappa + 1, fails H and Z, and adds
        # "H diagonal" and "Z diagonal" entries of residual inf
        original = realizations._energies

        def shifted(spec, mu, count, convention):
            energies = original(spec, mu, count, convention)
            if convention != "cv":
                return energies
            values = [Fraction(n, d) + spec.kappa + 1 for n, d in zip(*energies)]
            return [e.numerator for e in values], [e.denominator for e in values]

        monkeypatch.setattr(realizations, "_energies", shifted)
        assert main(["reduce", "--kappa", "1/2", "--dim", "8", "--mu", "0",
                     "--output", "json"]) == 1
        entries = strict_json(capsys.readouterr().out)["entries"]
        assert [(e["operator"], e["residual"]) for e in entries] == [
            ("Q+ <-> Q", 0.0), ("Q <-> Q+", 0.0), ("H", 1.5), ("Z <-> -Z", 1.5),
            ("H diagonal", "inf"), ("Z diagonal", "inf"),
        ]


_EXPR_PIECES = st.sampled_from(
    ["n", "c", "kappa", "x", "+", "-", "*", "/", "^", "(", ")", "(", ")", "parity(",
     "sqrt(", "bracket(", "@", ""]
) | st.integers(0, 4).map(str)
_expressions = st.sampled_from(["n", "n^2", "n*(n+c)", "bracket(n)", "n + 1", "sqrt(n)"]) | st.lists(
    _EXPR_PIECES, max_size=12
).map(" ".join)
_junk = (
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers(10**300, 10**400)
    | st.floats() | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
)
_rationals = st.integers(-3, 5) | st.sampled_from(["1/2", "-1/2", "5/2", "0", "1/0", "x", "3"])
_tolerances = (
    st.floats(0, 1) | st.integers(0, 3) | st.integers(10**300, 10**400) | st.floats() | _junk
)


def _mostly(valid, invalid=_junk):
    """Valid values three times in four, so that examples reach the later checks."""
    return st.integers(0, 3).flatmap(lambda k: invalid if k == 3 else valid)


_algebras = _mostly(
    st.fixed_dictionaries({"type": st.just("calogero_vasiliev"), "kappa": _rationals})
    | st.fixed_dictionaries(
        {"type": st.just("gdoa"), "F": _mostly(_expressions)},
        optional={"params": _mostly(st.dictionaries(st.sampled_from(["c", "kappa"]), _rationals))},
    ),
    st.dictionaries(st.sampled_from(["type", "kappa", "F", "params", "junk"]), _junk) | _junk,
)


@st.composite
def _configs(draw):
    """Configuration objects, each field valid or not; dims stay at most 16 (or 64 by default)."""
    optional = {
        "f": _mostly(st.just("1") | _expressions),
        "mu": _mostly(st.sampled_from([0, 1, "both"])),
        # no large integers: an even dim that large would run the structure check for ever
        "dim": _mostly(
            st.sampled_from([2, 4, 8, 16]),
            st.integers(-2, 16) | st.none() | st.booleans() | st.floats() | st.text(max_size=3),
        ),
        "backend": _mostly(st.sampled_from(["float", "exact-where-possible"])),
        "tolerance": _mostly(
            st.dictionaries(st.sampled_from(["absolute", "relative"]), _tolerances)
        ),
        "output": _mostly(st.sampled_from(["text", "json", "csv"])),
    }
    raw = draw(st.fixed_dictionaries({"algebra": _algebras}, optional=optional))
    return draw(_mostly(st.just(raw)))


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_fuzzed_configs_fail_only_with_config_error(raw):
    try:
        config = _parse_config(raw, None)
    except ConfigError:
        return
    assert config.dim >= 2 and config.dim % 2 == 0 and config.output in ("text", "json", "csv")
