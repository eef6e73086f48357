import json
import math

import pytest

from sievekit import search
from sievekit.cli import main
from sievekit.delay_ode import EULER_GAMMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_k100_row(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kappa", "100", "--no-numeric")
        assert code == 0
        assert out.splitlines()[1].startswith("100,502,")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kappa", "10,20",
                               "--no-numeric", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [row["kappa"] for row in data] == [10, 20]

    def test_range_spec(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kappa", "10:31:10", "--no-numeric")
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestIdentity:
    def test_spec_example_residual_zero(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--tuple", "0", "--x", "100",
                               "--z", "10", "--zp", "10", "--xi", "10", "--exact")
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == "0"
        assert data["residual_is_zero"] is True

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--tuple", "0,2", "--x", "200",
                               "--z", "12", "--zp", "8", "--xi", "12",
                               "--b", "2", "--y", "4")
        assert code == 0
        data = json.loads(out)
        assert abs(data["residual"]) <= 1e-6 * abs(data["lhs"])


class TestSearch:
    def test_count(self, capsys):
        # direct-enumeration value: the eight twin-prime n plus n = 1
        code, out, _ = run_cli(capsys, "search", "--tuple", "0,2",
                               "--x", "100", "--r", "2")
        assert code == 0
        assert out.strip() == "9"

    def test_histogram_csv(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--tuple", "0", "--x", "10")
        assert code == 0
        assert out == "omega,count\n0,1\n1,4\n2,4\n3,1\n"

    def test_density_json(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--tuple", "0,2", "--x", "1000",
                               "--r", "4", "--density")
        assert code == 0
        assert json.loads(out)["r"] == 4

    def test_density_searches_once(self, capsys, monkeypatch):
        calls = []
        inner = search.omega_profile

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(search, "omega_profile", counting)
        code, out, _ = run_cli(capsys, "search", "--tuple", "0,2", "--x", "100000",
                               "--r", "4", "--density")
        assert code == 0
        assert len(calls) == 1
        assert out == ('{"L_label": "{0,2}", "comparator": 754.4467880464557, '
                       '"count": 19316, "r": 4, "ratio": 25.602865975500183, '
                       '"x": 100000}\n')

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_segment_size_below_one_exit_2(self, capsys, size):
        code, out, err = run_cli(capsys, "search", "--tuple", "0,2", "--x", "100",
                                 "--segment-size", size)
        assert code == 2
        assert out == ""
        assert err == "error: segment_size must be >= 1\n"


class TestMoments:
    def test_kappa_one(self, capsys):
        # j' = e^-gamma on (0, 1), so J1(0) at u = 8/9 is 8 e^-gamma / 9
        code, out, _ = run_cli(capsys, "moments", "--kappa", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["quantity"] for r in rows] == ["J1(0)", "J1(1)", "J2(0)"]
        assert rows[0]["value"] == pytest.approx(
            math.exp(-EULER_GAMMA) * 8.0 / 9.0, abs=1e-12)

    def test_kappa_one_j2_has_no_comparator(self, capsys):
        # the envelope 5 log(kappa)/kappa is 0 at kappa = 1: no check to report
        code, out, _ = run_cli(capsys, "moments", "--kappa", "1", "--format", "json")
        assert code == 0
        j2 = json.loads(out)[2]
        assert j2["quantity"] == "J2(0)"
        assert (j2["asymptotic"], j2["diff"], j2["envelope"]) == (None, None, None)
        code, out, _ = run_cli(capsys, "moments", "--kappa", "1")
        assert code == 0
        assert out.splitlines()[3].endswith(",,,")


class TestParamsAndJfun:
    def test_params_echo(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--kappa", "100", "--r", "502")
        assert code == 0
        data = json.loads(out)
        assert data["b"] == pytest.approx(303.111, abs=1e-3)

    def test_jfun_grid(self, capsys):
        code, out, _ = run_cli(capsys, "jfun", "--kappa", "2", "--w-max", "2.0",
                               "--grid", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "w,log_q,j,j_prime"
        assert len(lines) == 10

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_jfun_grid_below_one_exit_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "jfun", "--kappa", "2", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == "error: --grid must be >= 1\n"

    def test_jfun_cache(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "jfun", "--kappa", "3", "--cache", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 1


class TestContracts:
    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "moments", "--kappa", "10")
        _, out2, _ = run_cli(capsys, "moments", "--kappa", "10")
        assert out1 == out2

    def test_validation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "identity", "--tuple", "0,2,4", "--x", "10",
                               "--z", "5", "--zp", "5", "--xi", "5", "--b", "-1")
        assert code == 2
        assert "error" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "search", "--tuple", "0,2",
                               "--x", str(10 ** 10), "--r", "2")
        assert code == 3
        assert "error" in err

    def test_int64_overflow_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "search", "--tuple",
                               '{"forms": [[4611686018427387904, 1]]}', "--x", "10")
        assert code == 3
        assert "int64" in err

    @pytest.mark.parametrize("spec,message", [("0,1", "f'(2) = 0"),
                                              ('{"forms": [[2, 1]]}', "rho(2) = 0")])
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_identity_density_errors_exit_2(self, capsys, spec, message, exact):
        code, out, err = run_cli(capsys, "identity", "--tuple", spec, "--x", "100",
                                 "--z", "10", "--zp", "10", "--xi", "10", *exact)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bad_args_exit_2(self, capsys):
        assert run_cli(capsys, "bound", "--kappa", "abc")[0] == 2

    def test_help_smoke(self, capsys):
        code, *_ = run_cli(capsys, "--help")
        assert code == 0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "bound", "--kappa", "100", "--no-numeric",
                               "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[1].startswith("100,502")
