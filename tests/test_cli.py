"""Command-line interface: examples, determinism, caching, error objects."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from genus0.cli import main
from genus0.cohft import Potential, p1_potential


def run_main(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_process(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GENUS0_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "genus0.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExamples:
    def test_wp_volumes(self, capsys):
        status, out = run_main(capsys, "wp-volumes", "--nmax", "7")
        assert status == 0
        assert out == "v = [1, 5, 61, 1379]\n"

    def test_betti(self, capsys):
        status, out = run_main(capsys, "betti", "--n", "5")
        assert status == 0
        assert out == "[1, 5, 1]\n"

    def test_pair(self, capsys):
        status, out = run_main(
            capsys, "pair", "--n", "5", "--m1", "{12|345}", "--m2", "{12|345}"
        )
        assert status == 0
        assert out == "-1\n"

    def test_pair_json(self, capsys):
        status, out = run_main(
            capsys,
            "pair",
            "--n",
            "5",
            "--m1",
            "{12|345}",
            "--m2",
            "{12|345}",
            "--format",
            "json",
        )
        assert status == 0
        assert json.loads(out)["value"] == "-1"


class TestSubcommands:
    def test_trees_all_degrees(self, capsys):
        status, out = run_main(capsys, "trees", "--n", "4")
        assert status == 0
        assert out.splitlines() == ["{}", "{12|34}", "{13|24}", "{14|23}"]

    def test_trees_one_degree(self, capsys):
        status, out = run_main(
            capsys, "trees", "--n", "5", "--degree", "2", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0 and data["count"] == 15
        assert all(name.count("{") == 2 for name in data["trees"])

    def test_mul_self_intersection(self, capsys):
        status, out = run_main(
            capsys, "mul", "--n", "5", "--factors", "{12|345}", "{12|345}"
        )
        assert status == 0
        assert out == "-1*{12|345}{125|34}\n"

    def test_mul_crossing_is_zero(self, capsys):
        status, out = run_main(
            capsys, "mul", "--n", "5", "--factors", "{12|345}", "{13|245}"
        )
        assert status == 0
        assert out == "0\n"

    def test_psi(self, capsys):
        status, out = run_main(capsys, "psi", "--n", "4", "--label", "1")
        assert status == 0
        assert out == "1/3*{12|34} + 1/3*{13|24} + 1/3*{14|23}\n"

    def test_kappa_json(self, capsys):
        status, out = run_main(
            capsys, "kappa", "--n", "4", "--a", "1", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0 and data["kind"] == "kappa(1)"
        assert [t["coeff"] for t in data["terms"]] == ["1/6", "5/12", "5/12"]

    def test_log_check(self, capsys):
        status, out = run_main(
            capsys, "log-check", "--a", "1", "--nmax", "5", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0 and data["passed"] and data["checked"] == 13

    def test_log_check_past_seven_labels(self, capsys):
        status, out = run_main(
            capsys, "log-check", "--a", "1", "--nmax", "8", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0 and data["passed"] and data["checked"] == 213

    def test_matone(self, capsys):
        status, out = run_main(capsys, "matone", "--format", "json")
        data = json.loads(out)
        assert status == 0 and data["passed"] and data["nmax"] == 12

    def test_a_coeffs(self, capsys):
        status, out = run_main(
            capsys, "a-coeffs", "--n", "4", "--a", "1", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0
        assert data["orbits"] == [{"tree": "{12|34}", "size": 3, "value": "1/3"}]

    def test_omega(self, capsys):
        status, out = run_main(
            capsys, "omega", "--n", "5", "--a", "2", "--format", "json"
        )
        data = json.loads(out)
        assert status == 0
        assert data["recursion"] == data["direct"] == "1"


class TestPotentialPipeline:
    @pytest.fixture
    def p1_file(self, tmp_path):
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(p1_potential(6).to_dict()))
        return str(path)

    def test_wdvv_passes(self, p1_file, capsys):
        status, out = run_main(capsys, "wdvv", "--input", p1_file)
        assert status == 0
        assert "associativity holds through order 6" in out

    def test_wdvv_failure_exits_nonzero(self, tmp_path, capsys):
        coeffs = dict(p1_potential(6).terms)
        coeffs[(0, 1, 1)] = Fraction(1)
        bad = Potential.build(p1_potential(6).metric, coeffs, 6)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_dict()))
        status, out = run_main(
            capsys, "wdvv", "--input", str(path), "--format", "json"
        )
        assert status == 1
        data = json.loads(out)
        assert data["failure"]["quadruple"] == [0, 0, 1, 1]

    def test_tensor_roundtrips_through_wdvv(self, p1_file, tmp_path, capsys):
        out_path = tmp_path / "square.json"
        status, _ = run_main(
            capsys,
            "tensor",
            "--left",
            p1_file,
            "--right",
            p1_file,
            "--output",
            str(out_path),
        )
        assert status == 0
        data = json.loads(out_path.read_text())
        assert data["rank"] == 4 and data["order"] == 6
        status, out = run_main(capsys, "wdvv", "--input", str(out_path))
        assert status == 0 and "holds" in out

    def test_tensor_stdout_table(self, p1_file, capsys):
        status, out = run_main(capsys, "tensor", "--left", p1_file, "--right", p1_file)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "rank 4  order 6"
        assert lines[1].split() == ["0", "0", "3", "1"]

    def test_p1xp1(self, capsys):
        status, out = run_main(capsys, "p1xp1", "--order", "5", "--format", "json")
        data = json.loads(out)
        assert status == 0 and data["passed"]
        got = {tuple(r["bidegree"]): r["tensor"] for r in data["numbers"]}
        assert got[(1, 1)] == "1" and got[(2, 0)] == "0"


class TestErrorObjects:
    def test_precondition_violation(self, capsys):
        status, out = run_main(capsys, "omega", "--n", "6", "--a", "2")
        assert status == 1
        data = json.loads(out)
        assert data["error"]["type"] == "ValueError"
        assert "divide" in data["error"]["message"]

    def test_non_complementary_pairing(self, capsys):
        status, out = run_main(
            capsys, "pair", "--n", "6", "--m1", "{12|3456}", "--m2", "{12|3456}"
        )
        assert status == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_label_count_mismatch(self, capsys):
        status, out = run_main(
            capsys, "mul", "--n", "6", "--factors", "{12|345}"
        )
        assert status == 1
        assert "labels" in json.loads(out)["error"]["message"]

    def test_missing_file(self, capsys):
        status, out = run_main(capsys, "wdvv", "--input", "/nonexistent.json")
        assert status == 1
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "content",
        [
            {},
            [],
            {"gram": [["1"]], "parities": [0], "order": 3, "terms": 5},
            {
                "gram": [["1"]],
                "parities": [0],
                "order": 3,
                "terms": [{"multi_index": [0, 0, 0], "coeff": None}],
            },
            # inexact numbers: 0.1 would load as 3602879701896397/2**55
            *(
                {
                    "gram": [[g]],
                    "parities": [0],
                    "order": 3,
                    "terms": [{"multi_index": [0, 0, 0], "coeff": c}],
                }
                for g, c in (("1", 0.1), ("1", True), (1.0, "1"), ("1", "1/0"))
            ),
            # an index, order or parity that int() would truncate or accept
            *(
                {
                    "gram": [["1"]],
                    "parities": [parity],
                    "order": order,
                    "terms": [{"multi_index": index, "coeff": "1"}],
                }
                for index, order, parity in (
                    ([0, 0, 0.7], 3, 0),
                    ([0, 0, True], 3, 0),
                    ([0, 0, 0], 4.9, 0),
                    ([0, 0, 0], True, 0),
                    ([0, 0, 0], "3", 0),
                    ([0, 0, 0], 3, 0.7),
                )
            ),
        ],
    )
    def test_malformed_potential(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        for argv in (
            ("wdvv", "--input", str(path)),
            ("tensor", "--left", str(path), "--right", str(path)),
        ):
            status, out = run_main(capsys, *argv)
            assert status == 1
            assert json.loads(out)["error"]["type"] == "ValueError"

    def test_trees_too_few_labels(self, capsys):
        for argv in (("trees", "--n", "2"), ("trees", "--n", "2", "--degree", "0")):
            status, out = run_main(capsys, *argv)
            assert status == 1
            assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.slow
class TestProcessLevel:
    def test_byte_identical_reruns(self):
        argv = ("a-coeffs", "--n", "5", "--a", "2", "--format", "json")
        first = run_process(*argv)
        second = run_process(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_cache_never_changes_results(self, tmp_path):
        argv = ("p1xp1", "--order", "5", "--format", "json")
        bare = run_process(*argv)
        assert bare.returncode == 0, bare.stderr
        env = {"GENUS0_CACHE_DIR": str(tmp_path)}
        cold = run_process(*argv, env_extra=env)
        warm = run_process(*argv, env_extra=env)
        assert cold.returncode == warm.returncode == 0
        assert cold.stdout == bare.stdout
        assert warm.stdout == bare.stdout
        assert any(tmp_path.iterdir())

    def test_closed_stdout_pipe(self):
        # `genus0 trees --n 8 | head -1`: the reader leaves after one line,
        # long before the command has written its ~600 kB
        env = dict(os.environ)
        env.pop("GENUS0_CACHE_DIR", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "genus0.cli", "trees", "--n", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == b"{}\n"
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
