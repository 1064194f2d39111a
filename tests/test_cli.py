import json
import sys
from fractions import Fraction

import pytest

from phylocircuit import netgraph
from phylocircuit.cli import main
from phylocircuit.metrics import distance_vector_to_text, resistance_vector
from phylocircuit.netgraph import network_to_text
from fixtures import (
    k33_with_leaves,
    quartet_tree,
    square_with_pendants,
    two_cycles_with_bridge,
)

F = Fraction


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.net"
    path.write_text(network_to_text(square_with_pendants()))
    return str(path)


@pytest.fixture
def k33_dist_file(tmp_path):
    d = resistance_vector(k33_with_leaves())
    path = tmp_path / "k33.dist"
    path.write_text(distance_vector_to_text(d))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_and_classify(square_file, capsys):
    code, out, _ = run(capsys, "validate", square_file)
    assert code == 0
    assert "4 leaves" in out
    code, out, _ = run(capsys, "classify", square_file)
    assert code == 0
    assert "level: 1" in out
    assert "triangle_free: true" in out


def test_validate_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("leaf 1 a\nleaf 2 b\nedge a b 1\nedge a b 2\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "MultiEdgeError" in err


def test_validate_unparsable_line_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("leaf one x1\nleaf 2 x2\nedge x1 x2 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "ValidationError: line 1" in err


@pytest.mark.parametrize("command", ["exterior", "invert"])
def test_split_file_with_two_fields_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.splits"
    bad.write_text("n 3 order 1,2,3\n1 | 1,2\n")
    code, _, err = run(capsys, command, str(bad))
    assert code == 1
    assert err == f"error: ValidationError: line 2: cannot parse '1 | 1,2'\n"


def test_validate_directory_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_undecodable_distance_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.dist"
    bad.write_bytes(b"n 4\n1 2 \xff\n")
    code, out, err = run(capsys, "kalmanson", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_negative_trivial_weight_exits_one(tmp_path, capsys):
    path = tmp_path / "nonmetric.dist"
    path.write_text("n 4\n1 2 1\n1 3 10\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n")
    code, out, err = run(capsys, "decompose", str(path), "--order", "1,2,3,4")
    assert code == 1
    assert out == ""
    assert "NegativeSplitWeightError" in err and "-4" in err


def test_kalmanson_search_rejects_nan_distance(tmp_path, capsys):
    path = tmp_path / "nan.dist"
    path.write_text("n 4\n1 2 nan\n1 3 1\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n")
    code, out, err = run(capsys, "kalmanson", str(path), "--search", "heuristic")
    assert code == 1
    assert out == ""
    assert "ValidationError: line 2" in err


def test_dist_then_kalmanson_search_pipeline(square_file, tmp_path, capsys):
    out_file = str(tmp_path / "sq.dist")
    code, out, _ = run(capsys, "dist", square_file, "--metric", "resistance", "-o", out_file)
    assert code == 0
    code, out, _ = run(capsys, "kalmanson", out_file, "--exact", "--search", "exact")
    assert code == 0
    assert "found order: (1,2,3,4)" in out


def test_kalmanson_not_found_on_k33(k33_dist_file, capsys):
    code, out, _ = run(capsys, "kalmanson", k33_dist_file, "--exact", "--search", "exact")
    assert code == 0
    assert "found order: none" in out
    assert "best_violation: 2/9" in out
    assert "orders_checked: 60" in out


def test_decompose_json(square_file, tmp_path, capsys):
    out_file = str(tmp_path / "sq.dist")
    run(capsys, "dist", square_file, "-o", out_file)
    code, out, _ = run(
        capsys, "--json", "decompose", out_file, "--exact", "--order", "1,2,3,4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] == "0"
    weights = {
        (tuple(s["side_a"]), tuple(s["side_b"])): s["weight"]
        for s in doc["splits"]
    }
    assert weights[((1, 2), (3, 4))] == "1/4"


def test_round_trip_dist_decompose_exterior(square_file, tmp_path, capsys):
    out_file = str(tmp_path / "sq.dist")
    run(capsys, "dist", square_file, "-o", out_file)
    code, out, _ = run(capsys, "decompose", out_file, "--exact", "--order", "1,2,3,4")
    assert code == 0
    splits_file = tmp_path / "sq.splits"
    splits_file.write_text(out)
    code, out, _ = run(capsys, "exterior", str(splits_file), "--exact")
    assert code == 0
    assert out.count("leaf") == 4
    # rebuilt unit square: 4 pendants + 4 cycle edges
    assert out.count("edge") == 8


def test_rw_sigma_sw_commands(square_file, capsys):
    code, out, _ = run(capsys, "rw", square_file)
    assert code == 0
    assert "| 1,2 | 3,4" in out
    code, out, _ = run(capsys, "sigma", square_file)
    assert code == 0
    assert out.count("|") >= 12
    code, out, _ = run(capsys, "sw", square_file)
    assert code == 0


def test_invert_command(square_file, tmp_path, capsys):
    code, out, _ = run(capsys, "rw", square_file)
    splits_file = tmp_path / "sq.splits"
    splits_file.write_text(out)
    code, out, _ = run(capsys, "invert", str(splits_file), "--exact")
    assert code == 0
    assert out.count("edge") == 8
    assert "1" in out


def test_xvector_command(square_file, capsys):
    code, out, _ = run(capsys, "xvector", square_file)
    assert code == 0
    assert out.strip().splitlines()[0] == "1 0 1 1 0 1"


def test_bme_min_command(square_file, tmp_path, capsys):
    out_file = str(tmp_path / "sq.dist")
    run(capsys, "dist", square_file, "-o", out_file)
    code, out, _ = run(
        capsys, "--json", "bme-min", out_file, "--exact", "--n", "4", "--k", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 1
    assert any(name.startswith("bme-4-0-") for name in doc["argmin"])


def test_verify_face_command(tmp_path, capsys):
    path = tmp_path / "quartet.net"
    path.write_text(network_to_text(quartet_tree(w_inner=F(2))))
    code, out, _ = run(capsys, "verify-face", str(path), "--metric", "resistance")
    assert code == 0
    assert "argmin_matches_refinements: true" in out
    assert "identity_holds: true" in out


def test_count_level1(capsys):
    code, out, _ = run(capsys, "count", "--level", "1", "--n", "5", "--k", "1")
    assert code == 0
    assert "count: 30" in out
    assert "closed_form: 30" in out


def test_count_level2_breakdown(capsys):
    code, out, _ = run(capsys, "count", "--level", "2", "--n", "5")
    assert code == 0
    assert "total: 120" in out
    assert "skeletons: 2" in out


def test_jc_commands(capsys):
    code, out, _ = run(capsys, "jc", "--m", "100", "--c", "26")
    assert code == 0
    assert out.startswith("D: 3.238")
    code, out, _ = run(capsys, "jc-parallel", "--m", "100", "--c1", "62.5")
    assert code == 0
    assert out.startswith("c: 78.03")


def test_jc_curve_csv(capsys):
    code, out, _ = run(capsys, "jc", "--m", "100", "--curve", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,D"
    assert len(lines) == 6


def test_scan_deterministic(capsys):
    code, out1, _ = run(capsys, "scan", "--conjecture", "outer-planar", "--trials", "4", "--seed", "11")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--conjecture", "outer-planar", "--trials", "4", "--seed", "11")
    assert out1 == out2
    assert "seed 11" in out1


def test_scan_faithful(capsys):
    code, out, _ = run(capsys, "scan", "--conjecture", "faithful", "--trials", "3", "--seed", "5")
    assert code == 0
    assert "resistance-realizable" in out


def test_scan_two_nested(capsys):
    code, out, _ = run(capsys, "scan", "--conjecture", "two-nested", "--trials", "4", "--seed", "7")
    assert code == 0


def test_exterior_json_output(square_file, tmp_path, capsys):
    code, out, _ = run(capsys, "rw", square_file)
    splits_file = tmp_path / "sq.splits"
    splits_file.write_text(out)
    code, out, _ = run(capsys, "--json", "exterior", str(splits_file), "--exact")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"leaves", "edges"}
    assert len(doc["edges"]) == 8


def test_jc_missing_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "jc", "--m", "100")
    assert code == 2
    assert "needs --c" in err


def test_commands_never_enumerate_consistent_orders(monkeypatch, tmp_path, capsys):
    def forbidden(net):
        raise AssertionError("consistent_orders called")

    original = netgraph.consistent_orders
    for name, module in list(sys.modules.items()):
        if name.startswith("phylocircuit"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    net_file = tmp_path / "two-cycles.net"
    net_file.write_text(network_to_text(two_cycles_with_bridge()))
    code, rw_out, _ = run(capsys, "rw", str(net_file))
    assert code == 0
    splits_file = tmp_path / "two-cycles.splits"
    splits_file.write_text(rw_out)
    for argv in (
        ["sigma", str(net_file)],
        ["invert", str(splits_file), "--exact"],
        ["sw", str(net_file)],
        ["scan", "--conjecture", "faithful", "--trials", "3", "--seed", "5"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
