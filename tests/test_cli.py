"""End-to-end CLI behaviour: subcommands, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from jachalf import cli
from jachalf.cli import main
from jachalf.errors import InternalInvariantViolation


@pytest.fixture()
def g1_curve_file(tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps({"p": 7, "modulus": [1], "roots": [[0], [1], [6]]}))
    return str(path)


@pytest.fixture()
def g2_curve_file(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(
        json.dumps(
            {
                "p": 7,
                "modulus": [1, 0, 1],
                "roots": [[0, 0], [1, 0], [6, 0], [0, 1], [0, 6]],
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHalve:
    def test_four_rational_records(self, capsys, g1_curve_file):
        code, out, _ = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "1,0"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert all(r["rational"] for r in records)
        assert [r["tuple_index"] for r in records] == [0, 1, 2, 3]

    def test_rational_only_filters_everything(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys,
            ["halve", "--curve", g1_curve_file, "--point", "4,2", "--rational-only"],
        )
        assert code == 0
        assert out == ""

    def test_json_point_form(self, capsys, g2_curve_file):
        # f(3) = 3^5 - 3 = 2 and 3^2 = 2 over F_7
        code, out, _ = run(
            capsys, ["halve", "--curve", g2_curve_file, "--point", "[[3,0],[3,0]]"]
        )
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_infinity_is_exit_4(self, capsys, g1_curve_file):
        code, _, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "inf"])
        assert code == 4 and err

    def test_off_curve_is_exit_3(self, capsys, g1_curve_file):
        code, _, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "3,1"])
        assert code == 3 and err

    def test_malformed_point_is_exit_2(self, capsys, g1_curve_file):
        code, _, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "wat"])
        assert code == 2 and err

    def test_halves_above_the_tower_is_exit_2(self, capsys, g1_curve_file):
        # a = u with u^2 = 3 lies on the curve, but a - 1 has norm 5, a non-square
        point = "[[[0],[1]],[[3],[5]]]"
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", point])
        assert code == 2 and out == ""
        assert "[[[0], [1]], [[3], [5]]]" in err

    def test_genus_above_the_halving_bound_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g12.json"
        path.write_text(json.dumps({"p": 101, "modulus": [1], "roots": [[i] for i in range(25)]}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["halve", "--curve", str(path), "--point", "0,0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "genus 12" in err
        assert time.perf_counter() - start < 5

    def test_rationality_of_halves_of_a_tower_point(self, capsys, tmp_path):
        path = tmp_path / "f25.json"
        path.write_text(
            json.dumps(
                {
                    "p": 5,
                    "modulus": [3, 0, 1],
                    "roots": [[4, 1], [0, 3], [1, 4], [1, 3], [0, 4]],
                }
            )
        )
        code, out, _ = run(capsys, ["halve", "--curve", str(path), "--point", "[[3,1],[2,0]]"])
        assert code == 0
        assert len(out.splitlines()) == 16


class TestGroup:
    def test_double_point(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys, ["group", "--curve", g1_curve_file, "double", "--point", "4,2"]
        )
        assert code == 0
        assert json.loads(out) == {"U": [[6], [1]], "V": []}

    def test_mul_order_four(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys,
            ["group", "--curve", g1_curve_file, "mul", "--point", "4,2", "--scalar", "4"],
        )
        assert code == 0
        assert json.loads(out) == {"U": [[1]], "V": []}

    def test_neg(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys, ["group", "--curve", g1_curve_file, "neg", "--point", "4,2"]
        )
        assert code == 0
        assert json.loads(out) == {"U": [[3], [1]], "V": [[5]]}

    def test_add_divisor_files(self, capsys, g1_curve_file, tmp_path):
        d1 = tmp_path / "d1.json"
        d1.write_text(json.dumps({"U": [[3], [1]], "V": [[2]]}))
        d2 = tmp_path / "d2.json"
        d2.write_text(json.dumps({"U": [[3], [1]], "V": [[5]]}))
        code, out, _ = run(
            capsys,
            [
                "group", "--curve", g1_curve_file, "add",
                "--divisor", str(d1), "--divisor", str(d2),
            ],
        )
        assert code == 0
        assert json.loads(out) == {"U": [[1]], "V": []}

    def test_invalid_divisor_is_exit_3(self, capsys, g1_curve_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"U": [[3], [1]], "V": [[3]]}))  # 3^2 != f(4)
        code, _, err = run(
            capsys, ["group", "--curve", g1_curve_file, "double", "--divisor", str(bad)]
        )
        assert code == 3 and err

    def test_invalid_divisor_names_the_file_and_the_pair(self, capsys, g1_curve_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"U": [[3], [1]], "V": [[3]]}))
        code, out, err = run(
            capsys, ["group", "--curve", g1_curve_file, "double", "--divisor", str(bad)]
        )
        assert code == 3 and out == ""
        assert err == (
            f"error: divisor file {bad}: (U, V) = ([[3], [1]], [[3]]): U does not divide V^2 - f\n"
        )

    def test_malformed_divisor_names_the_file(self, capsys, g1_curve_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"V": []}))
        code, out, err = run(
            capsys, ["group", "--curve", g1_curve_file, "neg", "--divisor", str(bad)]
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: divisor file {bad}:") and "missing field 'U'" in err

    def test_wrong_operand_count_is_exit_2(self, capsys, g1_curve_file):
        code, _, err = run(capsys, ["group", "--curve", g1_curve_file, "add"])
        assert code == 2 and err

    def test_mul_without_scalar_is_exit_2(self, capsys, g1_curve_file):
        code, out, err = run(capsys, ["group", "--curve", g1_curve_file, "mul", "--point", "4,2"])
        assert code == 2 and out == "" and "--scalar" in err


class TestCheck:
    def test_divisible_by_two(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys,
            ["check", "--curve", g1_curve_file, "--point", "1,0", "divisible-by-2"],
        )
        assert code == 0
        assert json.loads(out)["result"] is True

    def test_divisible_by_two_witness(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys,
            ["check", "--curve", g1_curve_file, "--point", "4,2", "divisible-by-2"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"] is False
        assert record["witness"] == {"failing_factor": [6, 1]}

    def test_all_rational(self, capsys, g1_curve_file):
        code, out, _ = run(
            capsys,
            ["check", "--curve", g1_curve_file, "--point", "1,0", "all-rational"],
        )
        assert code == 0
        assert json.loads(out)["result"] is True

    def test_point_outside_prime_field_is_exit_2(self, capsys, g1_curve_file):
        point = "[[[0],[1]],[[3],[5]]]"
        code, out, err = run(
            capsys, ["check", "--curve", g1_curve_file, "--point", point, "divisible-by-2"]
        )
        assert code == 2 and out == ""
        assert "[[[0], [1]], [[3], [5]]]" in err

    def test_curve_outside_prime_field_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "f49.json"
        path.write_text(json.dumps({"p": 7, "modulus": [1, 0, 1], "roots": [[0, 1], [1, 0], [6, 0]]}))
        code, out, err = run(
            capsys, ["check", "--curve", str(path), "--point", "1,0", "divisible-by-2"]
        )
        assert code == 2 and out == ""
        assert "[[0, 1], [1, 0], [6, 0]]" in err

    @pytest.mark.parametrize("which", ["divisible-by-2", "all-rational"])
    def test_point_at_infinity_is_exit_4(self, capsys, g1_curve_file, which):
        code, out, err = run(capsys, ["check", "--curve", g1_curve_file, "--point", "inf", which])
        assert code == 4 and out == "" and err.startswith("error:")


class TestTorsionScan:
    def test_g2_scan_clean(self, capsys, g2_curve_file):
        code, out, _ = run(
            capsys, ["torsion-scan", "--curve", g2_curve_file, "--max-order", "4"]
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_oversized_field_is_exit_5(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"p": 1009, "modulus": [1], "roots": [[0], [1], [2]]})
        )
        code, _, err = run(capsys, ["torsion-scan", "--curve", str(path)])
        assert code == 5 and err

    @pytest.mark.parametrize("n_max", ["-3", "0", "1", "2"])
    @pytest.mark.parametrize("genus", [1, 2])
    def test_max_order_below_3_is_exit_2(
        self, capsys, g1_curve_file, g2_curve_file, genus, n_max
    ):
        path = g1_curve_file if genus == 1 else g2_curve_file
        code, out, err = run(capsys, ["torsion-scan", "--curve", path, "--max-order", n_max])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: max order {n_max} is below 3")


class TestSharedParser:
    """main() parses with one parser per process, built on its first call."""

    @staticmethod
    def first_call(capsys, argv):
        """The result of argv run as the first call of a process."""
        cli._parser.cache_clear()
        return run(capsys, argv)

    def test_parser_is_built_once(self, capsys, monkeypatch, g1_curve_file):
        built, build = [], cli.build_parser

        def build_parser():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", build_parser)
        cli._parser.cache_clear()
        for argv in (
            ["halve", "--curve", g1_curve_file, "--point", "1,0"],
            ["check", "--curve", g1_curve_file, "--point", "1,0", "divisible-by-2"],
            ["torsion-scan", "--curve", g1_curve_file],
        ):
            assert run(capsys, argv)[0] == 0
        assert len(built) == 1
        assert cli.build_parser() is not cli.build_parser()

    def test_no_state_crosses_calls(self, capsys, g1_curve_file, tmp_path):
        d1 = tmp_path / "d1.json"
        d1.write_text(json.dumps({"U": [[3], [1]], "V": [[2]]}))  # (4, 2)
        d2 = tmp_path / "d2.json"
        d2.write_text(json.dumps({"U": [[2], [1]], "V": [[1]]}))  # (5, 1)
        group = ["group", "--curve", g1_curve_file]
        halve = ["halve", "--curve", g1_curve_file, "--point", "4,2"]
        calls = [
            [*group, "add", "--divisor", str(d1), "--divisor", str(d2)],
            [*group, "double", "--divisor", str(d1)],
            [*halve, "--rational-only"],
            halve,
        ]
        first = [self.first_call(capsys, argv) for argv in calls]
        cli._parser.cache_clear()
        shared = [run(capsys, argv) for argv in calls]
        assert shared == first
        assert first[2] == (0, "", "") and len(first[3][1].splitlines()) == 4

    def test_usage_error_leaves_the_parser_clean(self, capsys, g1_curve_file):
        argv = ["halve", "--curve", g1_curve_file, "--point", "1,0"]
        first = self.first_call(capsys, argv)
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["halve", "--point", "1,0"])
        assert exc.value.code == 2
        assert "the following arguments are required: --curve" in capsys.readouterr().err
        assert run(capsys, argv) == first

    def test_import_builds_no_parser(self):
        code = (
            "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]; "
            "import jachalf.cli; print(len(built), jachalf.cli._parser.cache_info().currsize)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestParsing:
    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["halve", "--curve", "/no/such.json", "--point", "1,0"])
        assert code == 2 and err

    def test_duplicate_root_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"p": 7, "modulus": [1], "roots": [[0], [0], [1]]}))
        code, _, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and err

    def test_composite_p_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 15, "modulus": [1], "roots": [[0], [1], [2]]}))
        code, _, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and err

    def test_root_with_more_than_k_coefficients_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 7, "modulus": [1], "roots": [[0, 1], [1], [6]]}))
        code, out, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and out == ""
        assert str(path) in err and "at most 1 coefficients" in err

    @pytest.mark.parametrize(
        "argv", [["halve", "--point", "0,0"], ["torsion-scan", "--max-order", "4"]]
    )
    def test_root_in_the_tower_is_exit_2(self, capsys, tmp_path, argv):
        # u with u^2 = 3 lies in F_49, not in the field of definition F_7
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({"p": 7, "modulus": [1], "roots": [[0], [1], [[0], [1]]]}))
        code, out, err = run(capsys, [argv[0], "--curve", str(path), *argv[1:]])
        assert code == 2 and out == ""
        assert err.startswith("error: root [[0], [1]]") and "F_7^1" in err

    def test_non_integer_p_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 7.9, "modulus": [1], "roots": [[0], [1], [6]]}))
        code, _, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and "7.9" in err

    def test_non_integer_modulus_entry_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 7, "modulus": [1, 0.5, 1], "roots": [[0], [1], [6]]}))
        code, _, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and "0.5" in err

    def test_non_integer_coefficient_is_exit_2(self, capsys, g1_curve_file):
        code, _, err = run(
            capsys, ["halve", "--curve", g1_curve_file, "--point", "[[1e400],[1]]"]
        )
        assert code == 2 and "inf" in err

    def test_reducible_modulus_is_exit_2_naming_it(self, capsys, tmp_path):
        # t^8 + 1 splits into quadratics over F_7, as 16 divides 7^2 - 1
        path = tmp_path / "bad.json"
        modulus = [1, 0, 0, 0, 0, 0, 0, 0, 1]
        path.write_text(json.dumps({"p": 7, "modulus": modulus, "roots": [[0], [1], [6]]}))
        code, out, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(modulus) in err

    def test_constant_modulus_is_exit_2_naming_it(self, capsys, tmp_path):
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({"p": 7, "modulus": [3], "roots": [[0], [1], [6]]}))
        code, out, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "modulus [3] over F_7" in err

    @pytest.mark.parametrize("point", ["[1,2,3]", "[5]", "[]"])
    def test_point_encoding_of_other_length_is_exit_2(self, capsys, g1_curve_file, point):
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", point])
        assert code == 2 and out == ""
        assert err == f"error: point encoding must be [a, b]: {point!r}\n"

    def test_long_modulus_is_exit_2_before_any_power(self, capsys, tmp_path):
        # k^3 * bits(p) far above the bound: refused in well under a second
        path = tmp_path / "long.json"
        modulus = [1] * 1001
        path.write_text(json.dumps({"p": 2**61 - 1, "modulus": modulus, "roots": [[0], [1], [2]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["halve", "--curve", str(path), "--point", "1,0"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "degree 1000" in err

    def test_deeply_nested_point_is_exit_2(self, capsys, g1_curve_file):
        point = "[" * 5000 + "]" * 5000
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", point])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested too deeply" in err

    def test_long_input_is_not_echoed_in_full(self, capsys, g1_curve_file):
        point = "[" * 3000 + "]" * 3000
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", point])
        assert code == 2 and out == ""
        assert err.startswith("error: point") and len(err.encode()) <= 512


class TestInternalErrors:
    def test_builtin_error_inside_the_library_is_exit_1(self, capsys, g1_curve_file, monkeypatch):
        def broken(point):
            raise TypeError("a bug, not an input error")

        monkeypatch.setattr("jachalf.cli.halve", broken)
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "1,0"])
        assert code == 1 and out == ""
        assert "internal error" in err

    def test_library_bug_error_class_is_exit_1(self, capsys, g1_curve_file, monkeypatch):
        def broken(point):
            raise InternalInvariantViolation("double(half) != class of P")

        monkeypatch.setattr("jachalf.cli.halve", broken)
        code, out, err = run(capsys, ["halve", "--curve", g1_curve_file, "--point", "1,0"])
        assert code == 1 and out == ""
        assert err.startswith("internal error: InternalInvariantViolation: double(half)")


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"selftest": "pass"}

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, ["selftest"])
        _, second, _ = run(capsys, ["selftest"])
        assert first == second


def test_import_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import jachalf.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    allowed = sys.stdlib_module_names | {"jachalf"}
    assert [m for m in proc.stdout.split() if m.partition(".")[0] not in allowed] == []
