import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

import sievekit
from sievekit import cli, errors, search
from sievekit.cli import main
from sievekit.delay_ode import EULER_GAMMA


def subclasses(cls):
    """Every subclass of cls, recursively."""
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ALL_ERRORS = sorted(set(subclasses(errors.SieveKitError)), key=lambda c: c.__name__)


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

    def test_csv_and_json(self, capsys):
        code, text, _ = run_cli(capsys, "bound", "--kappa", "10,20", "--no-numeric")
        assert code == 0
        assert text.splitlines()[0].startswith("kappa,r_explicit")
        assert len(text.splitlines()) == 3
        code, out, _ = run_cli(capsys, "bound", "--kappa", "10,20", "--no-numeric",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["kappa"] == 10


class TestIdentity:
    def test_spec_example_residual_zero(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--tuple", "0", "--x", "100",
                               "--z", "10", "--zp", "10", "--xi", "10", "--exact")
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == "0"
        assert data["residual_is_zero"] is True

    def test_weighted_prime_without_density(self, capsys):
        # rho(3) = 0 and 3 < z: exited 2 with "error: rho(3) = 0"
        code, out, _ = run_cli(capsys, "identity", "--tuple", '{"forms": [[3,1],[3,7]]}',
                               "--x", "2000", "--z", "20", "--zp", "3", "--xi", "10", "--exact")
        assert code == 0
        assert json.loads(out)["residual"] == "0"

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--tuple", "0,2", "--x", "200",
                               "--z", "12", "--zp", "8", "--xi", "12",
                               "--b", "2", "--y", "4")
        assert code == 0
        data = json.loads(out)
        assert abs(data["residual"]) <= 1e-6 * abs(data["lhs"])

    @pytest.mark.parametrize("poly", [[], ["--poly", "1"]])
    def test_zp_one_exit_2(self, capsys, poly):
        # u = log xi / log z' needs z' > 1
        code, out, err = run_cli(capsys, "identity", "--tuple", "0", "--x", "100",
                                 "--z", "10", "--zp", "1", "--xi", "10", *poly)
        assert code == 2
        assert out == ""
        assert err == "error: z' = 1 must be > 1\n"


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

    def test_density_json_x(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--tuple", "0,2", "--x", "1000",
                               "--r", "3", "--density")
        assert code == 0
        assert '"x": 1000' in out

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--tuple", "0,2", "--x", "3")
        assert code == 0
        assert out == "omega,count\n1,1\n2,1\n3,1\n"

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

    @pytest.mark.parametrize("flag,value", [
        ("--segment-size", "0"), ("--segment-size", "-5"),
        ("--threads", "0"), ("--threads", "-4"),
    ], ids=["0", "-5", "threads-0", "threads--4"])
    def test_segment_size_below_one_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "search", "--tuple", "0,2", "--x", "100",
                                 flag, value)
        assert code == 2
        assert out == ""
        name = flag.removeprefix("--").replace("-", "_")
        assert err == f"error: {name} = {value} must be >= 1\n"


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

    def test_csv_shape(self, capsys):
        code, text, _ = run_cli(capsys, "moments", "--kappa", "10")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "kappa,quantity,numeric,asymptotic,diff,envelope"
        assert len(lines) == 4
        assert lines[1].startswith("10,J1(0),")


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

    def test_jfun_json_is_strict(self, capsys):
        # log q(0) = -inf has no JSON spelling: it goes out as null
        code, out, _ = run_cli(capsys, "jfun", "--kappa", "2", "--w-max", "2.0",
                               "--grid", "8", "--format", "json")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        grid = json.loads(out, parse_constant=reject)["grid"]
        assert grid[0]["log_q"] is None
        assert all(isinstance(g["log_q"], float) for g in grid[1:])

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_jfun_grid_below_one_exit_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "jfun", "--kappa", "2", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == "error: --grid must be >= 1\n"

    def test_jfun_grid_above_cap_exit_3(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid check")

        monkeypatch.setattr(cli, "solve_j", no_solve)
        grid = cli.JFUN_GRID_CAP + 1
        code, out, err = run_cli(capsys, "jfun", "--kappa", "2", "--grid", str(grid))
        assert code == 3
        assert out == ""
        assert err == f"error: --grid = {grid} above cap {cli.JFUN_GRID_CAP}\n"


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

    IDENTITY = ("identity", "--tuple", "0,2", "--x", "100", "--z", "10", "--zp", "10",
                "--xi", "10")
    PARAMS = ("params", "--kappa", "10", "--r", "50")
    SEARCH = ("search", "--tuple", "0,2", "--x", "10")
    JFUN = ("jfun", "--kappa", "3")
    KAPPA_SPEC = "--kappa %s is not an integer, a list a,b,c or a nonempty range lo:hi[:step]"

    @pytest.mark.parametrize("argv,message", [
        (PARAMS + ("--alpha", "0"), "alpha = 0 must be finite and > 1"),
        (PARAMS + ("--alpha", "-1"), "alpha = -1 must be finite and > 1"),
        (PARAMS + ("--alpha", "1"), "alpha = 1 must be finite and > 1"),
        (PARAMS + ("--alpha", "nan"), "alpha = nan must be finite and > 1"),
        (PARAMS + ("--alpha", "inf"), "alpha = inf must be finite and > 1"),
        (IDENTITY + ("--poly", "1,nan"), "coefficients (1.0, nan) of P must be finite"),
        (IDENTITY + ("--b", "inf", "--exact"), "b = inf must be finite"),
        (IDENTITY + ("--b", "nan"), "b = nan must be finite"),
        (IDENTITY + ("--y", "nan"), "y = nan must be finite"),
        (IDENTITY + ("--z", "inf", "--exact"), "z = inf must be finite"),
        (IDENTITY + ("--zp", "nan"), "z_prime = nan must be finite"),
        (IDENTITY + ("--zp", "inf"), "z_prime = inf must be finite"),
        (IDENTITY + ("--xi", "nan"), "xi = nan must be finite"),
        (IDENTITY + ("--xi", "inf"), "xi = inf must be finite"),
        (IDENTITY + ("--xi", "-5"), "xi = -5 must be > 0"),
        (IDENTITY + ("--x", "-5"), "x = -5 must be >= 0"),
        (SEARCH + ("--r", "-1"), "r = -1 must be >= 0"),
        (SEARCH + ("--r", "-1", "--density"), "r = -1 must be >= 0"),
        (SEARCH + ("--density",), "--density needs --r"),
        # U = 1 exactly at kappa = 10, where alpha = 10 U / (U - 1) has no value
        (PARAMS + ("--delta", "-0.9888888888888889"),
         "delta = -0.988889 must be finite and >= 0"),
        # U = 1 + 9e-15 would give alpha ~ 1.1e15
        (PARAMS + ("--delta", "-0.98888888888888"),
         "delta = -0.988889 must be finite and >= 0"),
        (PARAMS + ("--delta", "nan"), "delta = nan must be finite and >= 0"),
        (PARAMS + ("--delta", "inf"), "delta = inf must be finite and >= 0"),
        (PARAMS + ("--eps", "nan"), "eps = nan must be finite and >= 0"),
        (PARAMS + ("--eps", "-1"), "eps = -1 must be finite and >= 0"),
        (JFUN + ("--tol", "nan"), "tol = nan must be finite and > 0"),
        (JFUN + ("--tol", "-1"), "tol = -1 must be finite and > 0"),
        (JFUN + ("--tol", "0"), "tol = 0 must be finite and > 0"),
        (JFUN + ("--degree", "257"), "degree = 257 must be between 4 and 256"),
        (JFUN + ("--degree", "30000"), "degree = 30000 must be between 4 and 256"),
        (("bound", "--kappa", "20:10"), KAPPA_SPEC % "'20:10'"),
        (("bound", "--kappa", "10:20:-1"), KAPPA_SPEC % "'10:20:-1'"),
        (("bound", "--kappa", "10:20:0"), KAPPA_SPEC % "'10:20:0'"),
        (("moments", "--kappa", "1:3:1:9"), KAPPA_SPEC % "'1:3:1:9'"),
        (("moments", "--kappa", "5,nan"), KAPPA_SPEC % "'5,nan'"),
        (("moments", "--kappa", "0"), "kappa = 0 must be >= 1"),
        (("bound", "--kappa", "10", "--slack", "nan"), "slack = nan must be finite"),
        (("bound", "--kappa", "10", "--slack", "inf"), "slack = inf must be finite"),
    ], ids=["alpha-0", "alpha--1", "alpha-1", "alpha-nan", "alpha-inf", "poly-nan",
            "b-inf", "b-nan", "y-nan", "z-inf", "zp-nan", "zp-inf", "xi-nan", "xi-inf",
            "xi--5",
            "x--5", "r--1", "r--1-density", "density-without-r", "delta-U-1",
            "delta-U-near-1", "delta-nan", "delta-inf", "eps-nan", "eps--1", "tol-nan",
            "tol--1", "tol-0", "degree-257", "degree-30000", "kappa-empty",
            "kappa-step-negative", "kappa-step-0", "kappa-four-parts", "kappa-nan",
            "moments-kappa-0", "slack-nan", "slack-inf"])
    def test_bad_value_exit_2(self, capsys, argv, message):
        # a later --z, --x, ... overrides the one in IDENTITY
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "search", "--tuple", "0,2",
                               "--x", str(10 ** 10), "--r", "2")
        assert code == 3
        assert "error" in err

    def test_density_overflow_exit_3(self, capsys):
        # x / log(x)^400 printed an OverflowError traceback and exited 1
        offsets = ",".join(str(h) for h in range(0, 800, 2))
        code, out, err = run_cli(capsys, "search", "--tuple", offsets, "--x", "1000",
                                 "--r", "10", "--density")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("spec", [
        '{"form": [[1, 0]]}', '{"forms": 5}', '{"forms": [5]}',
        '{"forms": [[1, null]]}', '{"forms": [[1.5, 2]]}', '{"forms": [[true, 0]]}',
    ])
    def test_malformed_tuple_spec_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "search", "--tuple", spec, "--x", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("spec", ["[[1,0]]", "0,2,x", ""])
    def test_unparsed_tuple_spec_names_the_forms(self, capsys, spec):
        # '[[1,0]]' gave "invalid literal for int() with base 10: '[[1'"
        code, out, err = run_cli(capsys, "identity", "--tuple", spec, "--x", "100",
                                 "--z", "10", "--zp", "10", "--xi", "10")
        assert code == 2
        assert out == ""
        assert err == (f"error: tuple spec {spec!r} is not a JSON file path, a JSON object "
                       '{"forms": ...} or comma-separated integer offsets\n')

    @pytest.mark.parametrize("command", [SEARCH, IDENTITY], ids=["search", "identity"])
    @pytest.mark.parametrize("flag", ["--tuple", "--output"])
    def test_file_errors_exit_2(self, capsys, tmp_path, command, flag):
        # a directory as --tuple (IsADirectoryError) and an --output inside a
        # missing directory (FileNotFoundError) printed a traceback and exited 1;
        # the later --tuple overrides the one in the command
        path = tmp_path if flag == "--tuple" else tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *command, flag, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_bad_args_exit_2(self, capsys):
        assert run_cli(capsys, "bound", "--kappa", "abc")[0] == 2

    @pytest.mark.parametrize("exc", ALL_ERRORS + [ValueError], ids=lambda c: c.__name__)
    def test_error_class_sets_exit_code(self, capsys, monkeypatch, exc):
        # a new error class exits 3 only by deriving from ResourceError
        def fail(args):
            raise exc("refused")

        monkeypatch.setattr(cli, "cmd_params", fail)
        code, out, err = run_cli(capsys, *self.PARAMS)
        assert code == (3 if issubclass(exc, errors.ResourceError) else 2)
        assert out == ""
        assert err == "error: refused\n"

    @pytest.mark.parametrize("name", ["BudgetExceeded", "ToleranceNotMet", "QuadratureFailure",
                                      "LimitTooLarge", "RangeOverflow", "Int64Overflow"])
    def test_resource_errors_exit_3(self, name):
        # the six documented exit-3 errors; every other error class exits 2
        assert issubclass(getattr(errors, name), errors.ResourceError)

    @pytest.mark.parametrize("argv", [("moments", "--atol", "1e-8"),
                                      ("bound", "--atol", "1e-8"),
                                      ("jfun", "--kappa", "3", "--cache", "d")])
    def test_removed_options_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

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


# stdout sha256 of each command line.  The jfun JSON writes log q(0) as
# null; the moments and bound lines carry the solver's last-digit floats
# (checked against the older values by test_solver_outputs_frozen) and a
# numeric kappa = 130 row; the rest are as sievekit printed them before
# the CLI took over all output formatting.
STDOUT_SHA256 = {
    "jfun-csv": ("jfun --kappa 2 --w-max 2.0 --grid 8",
                 "cc3b75e7ca7d23e6dd0c215b71abf0e70ba78adcffa315c6f16fb848bf0f10bf"),
    "jfun-json": ("jfun --kappa 2 --w-max 2.0 --grid 8 --format json",
                  "616bd342c245e63b1d0ad374dffd3f3f6c6ab08cf47b0e8e61690978e6faaf63"),
    "moments-csv": ("moments --kappa 1,10",
                    "120ddd95b0fbc35c8fe1cbc0efe27a14f17da773ce54be4958f23c3e1c307554"),
    "moments-json": ("moments --kappa 1,10 --format json",
                     "5e7c4f6f827cbbff1b72128d8aac6c599f2608161f059f6be6f37312ad3e437d"),
    "bound-csv": ("bound --kappa 10,130",
                  "39c1d4be09d313e6d2af7f3c4ee08685cd10623611ab9476e6ca42d937146fdb"),
    "bound-json": ("bound --kappa 10,130 --format json",
                   "00f3f696e670eb990a9c9eb829371a860db27e6e0b0ed794565a229a4a997a5b"),
    "search-csv": ("search --tuple 0,2 --x 1000",
                   "feb388350c05a1d5c33fd87a6fad382661e1ca549285c8cb7f4b9b2c89526ac3"),
    "search-json": ("search --tuple 0,2 --x 1000 --format json",
                    "1e0f33229bb6d62b699be30177261dcf49963fbe2051bf4db285a14798dff1e8"),
    "search-r": ("search --tuple 0,2 --x 1000 --r 3",
                 "4a6082659f35a2809c92fdf5707625c448b72cdf0a4e0c55a68c722bc8136947"),
    "search-density": ("search --tuple 0,2 --x 1000 --r 3 --density",
                       "69d6520aa4c33458d087dab1a17470cdaa4e6706dc93c08e7f595365e89a8fc5"),
    "params": ("params --kappa 100 --r 502",
               "17de1da4930e70285decc075258e36806c9ebed61c6b5d7a03c5e8a9de9e4e37"),
    "identity-float": ("identity --tuple 0,2 --x 200 --z 12 --zp 8 --xi 12 --b 2 --y 4",
                       "fc8b6892620264d29a8c688759214aee3d43e5cabe97af12ee13322fb1fe94ba"),
    "identity-exact": ("identity --tuple 0 --x 100 --z 10 --zp 10 --xi 10 --exact",
                       "9dc206127d54f68fb91a44728cca20b84bba84136460480bc7fd44cad03e2afc"),
}


@pytest.mark.parametrize("command,sha256", STDOUT_SHA256.values(), ids=STDOUT_SHA256)
def test_stdout_pinned(capsys, command, sha256):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# bound and moments as sievekit printed them when each solver step still
# called chebval on the previous interval and chebint on the integrand:
# the cached per-degree matrices moved floats in the last digits only
SOLVER_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "solver_outputs.json").read_text())


@pytest.mark.parametrize("name", SOLVER_OUTPUTS)
def test_solver_outputs_frozen(capsys, name):
    frozen = SOLVER_OUTPUTS[name]
    code, out, _ = run_cli(capsys, *frozen["command"].split())
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len(frozen["rows"])
    for row, ref in zip(rows, frozen["rows"]):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float):
                assert abs(row[key] - value) <= 1e-11, (row["kappa"], key)
            else:
                assert row[key] == value, (row["kappa"], key)


def writes_json(path):
    """Whether the module calls json.dump or json.dumps, or imports either."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if {a.name for a in node.names} & {"dump", "dumps"}:
                return True
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            return True
    return False


def test_only_the_cli_formats_output():
    src = Path(sievekit.__file__).parent
    for path in sorted(src.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
        if path.name != "cli.py":
            assert not imported & {"csv", "io"}, path.name
        if path.name in ("bounds.py", "delay_ode.py", "moments.py", "search.py",
                         "weights.py"):
            assert "json" not in imported, path.name
        if path.name != "cli.py":
            # arithmetic.py reads JSON tuple specs but writes none
            assert not writes_json(path), path.name
