"""Command-line interface: examples, determinism, caching, error objects."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import keelring, linalg
from genus0.cli import main
from genus0.cohft import (
    Metric,
    Potential,
    RankOneTheory,
    a_coefficients,
    omega_recursion,
    p1_potential,
)


def run_main(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_process(*argv, env_extra=None):
    env = {**os.environ, **(env_extra or {})}
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

    def test_unit_monomial_reads_back(self, capsys):
        # trees prints the unit as {} and mul as 1; both read back on the
        # --n given, while Tree.parse alone cannot know the label count
        status, out = run_main(capsys, "trees", "--n", "5", "--degree", "0")
        assert (status, out) == (0, "{}\n")
        point = "{12|345}{125|34}"
        for unit in ("{}", "1"):
            status, out = run_main(
                capsys, "pair", "--n", "5", "--m1", point, "--m2", unit
            )
            assert (status, out) == (0, "1\n")
            status, out = run_main(
                capsys, "mul", "--n", "5", "--factors", unit, "{12|345}"
            )
            assert (status, out) == (0, "1*{12|345}\n")
        status, out = run_main(capsys, "mul", "--n", "2", "--factors", "{}")
        assert status == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("kappa", "--n", "7", "--a", "3", "--format", "json"),
                "b4324fe82f2424929050b79e389f6209e7155e8de31e142da141b9b318a78715",
            ),
            (
                ("kappa", "--n", "6", "--a", "2"),
                "fc719631575c71cb73bb5296975c0a0098b59f33b0bb164e14c7a15d699bb61d",
            ),
        ],
    )
    def test_kappa_prints_the_ring_representative(self, argv, digest, capsys):
        # `kappa` prints the pushforward term for term, never the orbit-sum
        # representative that log-check audits
        status, out = run_main(capsys, *argv)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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


class TestLivePaths:
    def test_no_fraction_rref_or_divisor_geometry(self, capsys, monkeypatch):
        # exact ranks and cut codes come from the GF(p) engine and the
        # trees' mask tables; FractionRREF and DivisorGeometry are the
        # tests' references, and no command may reach them
        def refuse(*args, **kwargs):
            raise AssertionError("a live path built a test-only reference")

        monkeypatch.setattr(linalg.FractionRREF, "__init__", refuse)
        monkeypatch.setattr(keelring.DivisorGeometry, "__init__", refuse)
        a_coefficients.cache_clear()
        omega_recursion.cache_clear()
        for argv, digest in (
            (
                ("a-coeffs", "--n", "8", "--a", "3"),
                "87febf393c0158d367b6fb152edfc4eb82f148e2f632fa49889c9a361449e140",
            ),
            (
                ("omega", "--n", "7", "--a", "2"),
                "3e5fece26890f06d4d1bb923569ee507946a6989275af2f7a7f6c9c2fc456c9e",
            ),
            (
                ("log-check", "--a", "3", "--nmax", "7"),
                "5293c7e58adeba5ecfc32bc7899f44cf5030b8f2f929c0d9fa51d1d421ce2bd4",
            ),
        ):
            status, out = run_main(capsys, *argv)
            assert status == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], 6)
        assert th.verify_splitting(6)


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

    def test_tensor_order_three(self, p1_file, capsys):
        # Below order 4 there is no associativity constraint to check, so
        # the product truncated at 3 points is the order-4 product's
        # 3-point part.
        def product(order):
            status, out = run_main(
                capsys,
                "tensor",
                "--left",
                p1_file,
                "--right",
                p1_file,
                "--order",
                order,
                "--format",
                "json",
            )
            assert status == 0
            return json.loads(out)

        three, four = product("3"), product("4")
        assert three["order"] == 3 and three["gram"] == four["gram"]
        assert three["terms"] == [
            t for t in four["terms"] if len(t["multi_index"]) == 3
        ]
        assert three["terms"]

    def test_order_three_files(self, tmp_path, capsys):
        # tensor multiplies two order-3 files, with no constraint to
        # check; wdvv still refuses to check one
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(p1_potential(3).to_dict()))
        argv = ("--left", str(path), "--right", str(path), "--format", "json")
        status, out = run_main(capsys, "tensor", *argv)
        assert status == 0
        data = json.loads(out)
        assert data["order"] == 3 and data["rank"] == 4 and data["terms"]
        status, out = run_main(capsys, "wdvv", "--input", str(path))
        assert status == 1
        assert "between 4 and the truncation order" in out

    def test_p1xp1_order_three(self, capsys):
        status, out = run_main(capsys, "p1xp1", "--order", "3", "--format", "json")
        data = json.loads(out)
        assert status == 0 and data["passed"] and data["wdvv_passed"]
        got = {tuple(r["bidegree"]): r["tensor"] for r in data["numbers"]}
        assert got == {(1, 0): "1", (0, 1): "1"}

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
            # a gram row given as a string, which would read as its
            # characters: the row "1" as [1], "12" as [1, 2]
            *(
                {
                    "gram": gram,
                    "parities": [0] * len(gram),
                    "order": 4,
                    "terms": [{"multi_index": [0, 0, 0], "coeff": "1"}],
                }
                for gram in (["1"], ["12", "21"])
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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("betti", "--n", "2"), "n = 2"),
            (("betti", "--n", "-4"), "n = -4"),
            (("betti", "--n", "6", "--degree", "4"), "degree 4"),
            (("betti", "--n", "6", "--degree", "-1"), "degree -1"),
            (("log-check", "--a", "1", "--nmax", "-1"), "nmax = -1"),
            (("log-check", "--a", "1", "--nmax", "2"), "nmax = 2"),
        ],
    )
    def test_sizes_out_of_range(self, argv, named, capsys):
        status, out = run_main(capsys, *argv, "--format", "json")
        assert status == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and named in err["message"]


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-4, 4),
    st.text(max_size=3),
    st.sampled_from(["1/0", "p/q", "2/-3", "1.5", "3/4", "-2", "nan", "1e400"]),
    st.integers(-3, 5),  # an order past 5 would make tensor slow, not wrong
)


def _valid_potential(draw) -> dict:
    order = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["line", "sum", "rank one", "random"]))
    if kind == "line":
        return p1_potential(order).to_dict()
    rank = 1 if kind == "rank one" else 2
    metric = Metric.standard(rank)
    coeffs = {}
    for k in range(3, order + 1):
        for m in itertools.combinations_with_replacement(range(rank), k):
            # a sum of rank-one theories is associative, random values
            # on mixed indices usually are not
            if kind != "random" and len(set(m)) > 1:
                continue
            num = draw(st.integers(-3, 3))
            coeffs[m] = Fraction(num, draw(st.integers(1, 4)))
    return Potential.build(metric, coeffs, order).to_dict()


@st.composite
def potential_files(draw) -> object:
    """Potential JSON: valid files, and ones with keys, values or indices spoilt."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JUNK)
    obj = _valid_potential(draw)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["gram", "parities", "order", "terms", "rank"]))
        how = draw(st.sampled_from(["drop", "junk", "inner"]))
        if how == "drop":
            obj.pop(key, None)
        elif how == "junk" or not isinstance(obj.get(key), list) or not obj[key]:
            obj[key] = draw(_JUNK)
        elif key == "terms":
            term = draw(st.sampled_from(obj["terms"]))
            field = draw(st.sampled_from(["multi_index", "coeff"]))
            edit = draw(st.sampled_from(["index", "drop", "junk"]))
            if edit == "index" and isinstance(term.get("multi_index"), list):
                # an index outside the basis, or of the wrong type
                term["multi_index"][0] = draw(st.sampled_from([-1, 2, 9, 0.0, True]))
            elif edit == "drop":
                term.pop(field, None)
            else:
                term[field] = draw(_JUNK)
        else:
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(_JUNK)
    return obj


class TestPotentialFuzz:
    """Any potential file gives a verdict or the JSON error object, never a
    traceback: wdvv and tensor run in-process on generated files."""

    @given(
        files=st.lists(potential_files(), min_size=2, max_size=2),
        fmt=st.sampled_from(["table", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_wdvv_and_tensor(self, files, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, obj in enumerate(files):
                paths.append(os.path.join(tmp, f"p{i}.json"))
                with open(paths[-1], "w") as fh:
                    json.dump(obj, fh)
            for argv in (
                ["wdvv", "--input", paths[0]],
                ["tensor", "--left", paths[0], "--right", paths[1]],
            ):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = main(argv + ["--format", fmt])
                out = buf.getvalue()
                assert status in (0, 1), (argv, files)
                if status == 0:
                    continue
                if argv[0] == "wdvv" and "error" not in out:
                    # a well-formed potential that fails the check
                    assert "FAILED" in out or json.loads(out)["passed"] is False
                    continue
                assert json.loads(out)["error"]["type"] == "ValueError", (out, files)


@pytest.mark.slow
class TestProcessLevel:
    def test_byte_identical_reruns(self):
        argv = ("a-coeffs", "--n", "5", "--a", "2", "--format", "json")
        first = run_process(*argv)
        second = run_process(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_cache_never_changes_results(self, tmp_path):
        # GENUS0_CACHE_DIR named the removed disk cache; it is now inert
        argv = ("p1xp1", "--order", "5", "--format", "json")
        bare = run_process(*argv)
        assert bare.returncode == 0, bare.stderr
        got = run_process(*argv, env_extra={"GENUS0_CACHE_DIR": str(tmp_path)})
        assert got.returncode == 0, got.stderr
        assert got.stdout == bare.stdout
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_pipe(self):
        # `genus0 trees --n 8 | head -1`: the reader leaves after one line,
        # long before the command has written its ~600 kB
        proc = subprocess.Popen(
            [sys.executable, "-m", "genus0.cli", "trees", "--n", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == b"{}\n"
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
