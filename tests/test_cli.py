import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from phylocircuit import enum2, metrics, netgraph, polytope
from phylocircuit.cli import cmd_validate, main
from phylocircuit.metrics import distance_vector_to_text, resistance_vector
from phylocircuit.netgraph import PhyloNetwork, network_to_text
from phylocircuit.randomnet import random_one_nested
from phylocircuit.reconstruct import resistance_split_system_direct
from phylocircuit.splits import displayed_splits, split_system_to_text
from fixtures import (
    caterpillar,
    decomposed_resistance_splits,
    k33_with_leaves,
    quartet_tree,
    square_with_pendants,
    square_chain,
    star,
    two_cycles_with_bridge,
    with_chord,
    with_leaf_chord,
)
import unrun_lines

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


_TRIVIAL_4 = "1 | 1 | 2,3,4\n1 | 1,3,4 | 2\n1 | 1,2,4 | 3\n1 | 1,2,3 | 4\n"


@pytest.mark.parametrize("command", ["exterior", "invert"])
def test_split_file_without_order_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.splits"
    bad.write_text("n 4 order -\n" + _TRIVIAL_4 + "1 | 1,2 | 3,4\n")
    code, out, err = run(capsys, command, str(bad))
    assert code == 1
    assert out == ""
    assert err == (
        "error: PhyloCircuitError: split file needs an order header to"
        " rebuild a network\n"
    )


@pytest.mark.parametrize("weight", ["0", "-"])
def test_invert_needs_a_positive_weight_on_every_split(tmp_path, capsys, weight):
    path = tmp_path / "zero.splits"
    path.write_text("n 4 order 1,2,3,4\n" + _TRIVIAL_4 + f"{weight} | 1,2 | 3,4\n")
    code, out, err = run(capsys, "invert", str(path))
    assert (code, out) == (1, "")
    assert err == "error: NotInvertibleError: weights must be positive\n"


@pytest.mark.parametrize("command", ["exterior", "invert"])
def test_split_file_order_label_above_n_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.splits"
    bad.write_text("n 4 order 1,2,3,5\n" + _TRIVIAL_4)
    code, out, err = run(capsys, command, str(bad))
    assert code == 1
    assert out == ""
    assert err == (
        "error: SizeMismatchError: order (1,2,3,5) is not a permutation of 1..4\n"
    )


def test_split_line_with_a_stray_second_side_exits_one(tmp_path, capsys):
    # the second side must be the rest of 1..4, or the line is no split
    bad = tmp_path / "bad.splits"
    bad.write_text("n 4 order 1,2,3,4\n1 | 1 | 3\n" + _TRIVIAL_4)
    code, out, err = run(capsys, "exterior", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: ValidationError: line 2: sides do not partition")


def test_split_given_twice_exits_one(tmp_path, capsys):
    # the second copy of {1}|{2,3,4} was summed in: pendant weight 2, exit 0
    bad = tmp_path / "twice.splits"
    bad.write_text("n 4 order 1,2,3,4\n1 | 1 | 2,3,4\n" + _TRIVIAL_4)
    code, out, err = run(capsys, "exterior", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: ValidationError: line 3: split {1}|{2,3,4} repeats line 2\n"


def _run_cli_process(*argv, flags=(), check=True, timeout=120, **env):
    """Run ``python -m phylocircuit.cli`` in a child process on this src;
    a child still running after ``timeout`` seconds is killed and fails the
    calling test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    try:
        return subprocess.run(
            [sys.executable, *flags, "-m", "phylocircuit.cli", *argv],
            capture_output=True, text=True, check=check, timeout=timeout,
            env=dict(os.environ, PYTHONPATH=path, **env),
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"phylocircuit {' '.join(argv)} still running after {timeout} s")


def test_hung_child_process_fails_its_test():
    # -c ends the interpreter's options, so the child sleeps instead of
    # running the CLI
    with pytest.raises(pytest.fail.Exception, match="still running after 1 s"):
        _run_cli_process("validate", flags=("-c", "import time; time.sleep(60)"),
                         timeout=1)


def test_line_hook_records_a_child_process(tmp_path, square_file, monkeypatch):
    # unrun_lines.py counts the lines CLI children run through this hook; a
    # broken hook would report every line that only children run as unrun
    out_dir = tmp_path / "lines"
    out_dir.mkdir()
    monkeypatch.delenv("PYTHONPATH", raising=False)  # unrun_lines.py may have set it
    monkeypatch.setenv(unrun_lines.OUT_DIR_VARIABLE, str(out_dir))
    plain = _run_cli_process("validate", square_file)
    assert list(out_dir.iterdir()) == []  # the hook is not on the path
    for name, value in unrun_lines.hook_env(str(out_dir)).items():
        monkeypatch.setenv(name, value)
    hooked = _run_cli_process("validate", square_file)
    assert (hooked.stdout, hooked.stderr) == (plain.stdout, plain.stderr)
    assert len(list(out_dir.iterdir())) == 1
    code = cmd_validate.__code__
    body = {line for _, _, line in code.co_lines() if line is not None}
    assert body <= unrun_lines.child_lines(str(out_dir))[os.path.realpath(code.co_filename)]


@pytest.fixture(scope="module")
def deep_split_files(tmp_path_factory):
    """Split files nested far deeper than the default recursion limit: a
    1,200-leaf caterpillar and a chain of 700 4-cycles (1,402 leaves)."""
    root = tmp_path_factory.mktemp("deep")
    files = {}
    for name, net in (("caterpillar", caterpillar(1200)), ("chain", square_chain(700))):
        system = resistance_split_system_direct(net)
        path = root / f"{name}.splits"
        path.write_text(split_system_to_text(system))
        files[name] = (str(path), system)
    return files


@pytest.mark.parametrize("name", ["caterpillar", "chain"])
def test_exterior_and_invert_at_depth(deep_split_files, name):
    path, system = deep_split_files[name]
    done = _run_cli_process("exterior", path, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    rebuilt = netgraph.parse_network(done.stdout)
    assert displayed_splits(rebuilt).splits >= system.splits
    done = _run_cli_process("invert", path, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    back = netgraph.parse_network(done.stdout)
    assert resistance_split_system_direct(back) == system


_DEGENERATE_DISTANCES = {
    "empty": "",
    "n-zero": "n 0\n",
    "square-zero": "0\n",
    "one-leaf": "n 1\n",
    "header-only": "n 4\n",
    "missing-pair": "n 3\n1 2 1\n1 3 2\n",
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_DISTANCES))
@pytest.mark.parametrize(
    "argv",
    [
        ["kalmanson"],
        ["kalmanson", "--order", "1,2,3,4"],
        ["kalmanson", "--search", "heuristic"],
        ["decompose", "--order", "1"],
        ["bme-min", "--n", "4", "--k", "0"],
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_degenerate_distance_file_gives_no_traceback(tmp_path, name, argv):
    path = tmp_path / f"{name}.dist"
    path.write_text(_DEGENERATE_DISTANCES[name])
    done = _run_cli_process(argv[0], str(path), *argv[1:], check=False)
    assert done.returncode in (0, 1, 2)
    assert "Traceback" not in done.stderr


def _enumeration_inputs(tmp_path) -> dict[str, str]:
    """Files for the enumeration commands: a 3-leaf star, an 8-leaf
    network, a 6-leaf level-2 theta and a 6-leaf distance vector."""
    rng = random.Random(0)
    theta = with_chord(random_one_nested(6, rng, binary=True), rng)
    assert netgraph.classify(theta).level == 2
    texts = {
        "star3": network_to_text(star(3)),
        "n8": network_to_text(random_one_nested(8, random.Random(8), binary=True)),
        "theta": network_to_text(theta),
        "dist6": distance_vector_to_text(
            resistance_vector(random_one_nested(6, random.Random(6), binary=True))
        ),
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--level", level, *extra]
        for level in ("1", "2")
        for extra in (["--n", "3"], ["--n", "8"], ["--n", "6", "--k", "-1"],
                      ["--n", "6", "--k", "9"])
    ]
    + [["bme-min", "dist6", "--n", "6", "--k", k] for k in ("-1", "9")]
    + [["bme-min", "dist6", "--n", "8", "--k", "0"]]
    + [["xvector", net] for net in ("star3", "n8", "theta")]
    + [["verify-face", net, "--metric", metric]
       for net in ("star3", "n8", "theta") for metric in ("resistance", "minpath")],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_enumeration_commands_give_no_traceback(tmp_path, argv):
    paths = _enumeration_inputs(tmp_path)
    done = _run_cli_process(*(paths.get(a, a) for a in argv), check=False)
    assert done.returncode in (0, 1, 2)
    assert "Traceback" not in done.stderr


def test_repeated_leaf_label_text_exits_one(tmp_path, capsys):
    # the second line replaced the first: "labeled node x9 has degree 0"
    bad = tmp_path / "dup.net"
    bad.write_text("leaf 1 x1\nleaf 2 x2\nleaf 1 x9\nedge x1 x2 1\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: ValidationError: line 3: leaf label 1 repeats line 1\n"


def test_repeated_leaf_label_json_exits_one(tmp_path, capsys):
    # json.loads kept the last "1", with the same misleading degree error
    bad = tmp_path / "dup.json"
    bad.write_text('{"leaves": {"1": "x1", "2": "x2", "1": "x9"},'
                   ' "edges": [["x1", "x2", "1"]]}')
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: ValidationError: network JSON repeats the key '1'\n"


def test_invert_never_imports_scipy(tmp_path):
    # both node-share pairs of this network's 4-cycle are free, so invert
    # picks shares; -X importtime lists each module the command imports
    path = tmp_path / "free.splits"
    net = random_one_nested(5, random.Random(5030), binary=True)
    path.write_text(split_system_to_text(resistance_split_system_direct(net)))
    done = _run_cli_process("invert", str(path), "--exact", flags=["-X", "importtime"])
    assert "edge" in done.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "phylocircuit.reconstruct" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_float_invert_independent_of_hash_seed(tmp_path):
    # sets iterate in hash order, which PYTHONHASHSEED changes per process;
    # no float sum may follow it
    net = random_one_nested(8, random.Random(2), binary=True)
    scaled = [(a, b, float(w) * 1.37) for a, b, w in net.edge_items]
    system = resistance_split_system_direct(
        PhyloNetwork.build(net.leaves, scaled, strict=True)
    )
    path = tmp_path / "float.splits"
    path.write_text(split_system_to_text(system, precision=17))
    outs = {
        _run_cli_process("--precision", "17", "invert", str(path),
                         PYTHONHASHSEED=seed).stdout
        for seed in ("0", "1")
    }
    assert len(outs) == 1


def _theta_file(tmp_path, scale=None) -> str:
    """A level-2 network written to a file: a seeded level-1 network with a
    leaf chord and one plain chord, its weights as floats times ``scale``
    when that is given."""
    rng = random.Random(12)
    net = with_chord(with_leaf_chord(random_one_nested(12, rng), rng), rng)
    assert netgraph.classify(net).level == 2
    if scale is not None:
        scaled = [(a, b, float(w) * scale) for a, b, w in net.edge_items]
        net = PhyloNetwork.build(net.leaves, scaled, strict=True)
    path = tmp_path / "theta.net"
    path.write_text(network_to_text(net, precision=17))
    return str(path)


def test_dist_never_imports_numpy(tmp_path):
    # theta blocks grow edge by edge and skeletons group by a canonical
    # code, in plain Python; numpy and networkx serve only the tests'
    # oracles.  Each command imports only the modules it runs, so these
    # commands together import every module but cli, which runs as __main__.
    path = _theta_file(tmp_path)
    dist_file = tmp_path / "square.dist"
    dist_file.write_text(distance_vector_to_text(resistance_vector(square_with_pendants())))
    runs = {
        "validate": (["validate", path], "valid network: 13 leaves"),
        "dist": (["dist", path], "n 13\n"),
        "kalmanson": (["kalmanson", str(dist_file), "--order", "1,2,3,4"], "order: "),
        "count": (["count", "--level", "2", "--n", "4"], "skeleton 0: "),
        "jc": (["jc", "--m", "100", "--c", "80"], "D: "),
        "scan": (["scan", "--conjecture", "faithful", "--trials", "2"], "# conjecture"),
    }
    imported = {}
    for command, (argv, head) in runs.items():
        done = _run_cli_process(*argv, flags=["-X", "importtime"])
        assert done.stdout.startswith(head), command
        imported[command] = {
            line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
        }
        assert not [m for m in imported[command]
                    if m.split(".")[0] in ("numpy", "networkx")], command
    package = Path(__file__).resolve().parents[1] / "src" / "phylocircuit"
    modules = {"phylocircuit"} | {
        f"phylocircuit.{p.stem}" for p in package.glob("*.py")
        if p.stem not in ("__init__", "cli")
    }
    assert set().union(*imported.values()) >= modules
    ours = {command: mods & modules for command, mods in imported.items()}
    assert ours["validate"] == {
        "phylocircuit", "phylocircuit.errors", "phylocircuit.rational", "phylocircuit.netgraph",
    }
    for command in ("dist", "kalmanson"):
        assert ours[command] == ours["validate"] | {"phylocircuit.metrics"}, command


def test_library_imports_only_the_standard_library():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    for module in sorted((root / "src" / "phylocircuit").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (module.name, name)
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_float_theta_dist_independent_of_hash_seed(tmp_path):
    # block.nodes and block.edges are sets, which iterate in hash order;
    # no float sum of a theta block may follow it
    path = _theta_file(tmp_path, scale=1.37)
    outs = {
        _run_cli_process("--precision", "17", "dist", path, PYTHONHASHSEED=seed).stdout
        for seed in ("0", "1")
    }
    assert len(outs) == 1


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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["kalmanson", "--order", "1,3,2,4"], ["kalmanson"], ["decompose", "--order", "1,3,2,4"]],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_bad_tolerance_exits_one(tmp_path, capsys, argv, tolerance):
    # the vector fails the order 1,3,2,4 by 8; a NaN tolerance let it pass
    path = tmp_path / "square.dist"
    path.write_text("n 4\n1 2 1.0\n1 3 5.0\n1 4 5.0\n2 3 5.0\n2 4 5.0\n3 4 1.0\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:], f"--tolerance={tolerance}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ValidationError: tolerance must be finite and nonnegative")


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


def test_kalmanson_heuristic_finds_shuffled_twelve_leaf_order(tmp_path, capsys):
    # the NeighborNet order of a level-1 resistance vector is a Kalmanson
    # order, found with one check above the exhaustive cap
    rng = random.Random(12)
    d = resistance_vector(random_one_nested(12, rng))
    perm = list(range(1, 13))
    rng.shuffle(perm)
    moved = {
        tuple(sorted((perm[i - 1], perm[j - 1]))): v
        for (i, j), v in zip(metrics.pair_iter(12), d.values)
    }
    path = tmp_path / "shuffled.dist"
    path.write_text(distance_vector_to_text(
        metrics.DistanceVector(12, tuple(moved[p] for p in metrics.pair_iter(12)))
    ))
    code, out, _ = run(capsys, "kalmanson", str(path), "--exact", "--search", "heuristic")
    assert code == 0
    first, checked = out.splitlines()
    assert first.startswith("found order: (") and checked == "orders_checked: 1"
    order = first.removeprefix("found order: (").rstrip(")")
    code, _, err = run(capsys, "decompose", str(path), "--exact", "--order", order)
    assert (code, err) == (0, "")


def test_sw_on_level_two_heavy_chord_above_exhaustive_cap(tmp_path, capsys):
    # a chord heavier than the whole network leaves the minimum path vector
    # of the 11-leaf level-1 network unchanged, so it has a Kalmanson order
    rng = random.Random(0)
    base = random_one_nested(11, rng, binary=True)
    cycles = netgraph.classify(base).blocks.of_kind(netgraph.CYCLE)
    k, ring = next(
        (k, ring)
        for k, ring in enumerate(map(netgraph.cycle_node_sequence, cycles))
        if len(ring) >= 4
    )
    net = enum2.add_heavy_chord(base, k, (ring[0], ring[2]), base.total_weight + 1)
    assert netgraph.classify(net).level == 2
    path = tmp_path / "chorded.net"
    path.write_text(network_to_text(net))
    code, out, err = run(capsys, "sw", str(path))
    assert (code, err) == (0, "")
    assert out.strip()


def test_kalmanson_report_on_given_order(k33_dist_file, capsys):
    code, out, _ = run(
        capsys, "kalmanson", k33_dist_file, "--exact", "--order", "1,2,3,4,5,6"
    )
    assert code == 0
    assert out.splitlines() == [
        "order: (1,2,3,4,5,6)",
        "kalmanson: false",
        "equalities: 6",
        "violations: 9",
        "max_violation: 2/9",
        "first_violation: (1, 2, 4, 5) by 2/9",
    ]
    code, out, _ = run(
        capsys, "--json", "kalmanson", k33_dist_file, "--exact",
        "--order", "1,2,3,4,5,6",
    )
    assert code == 0
    assert json.loads(out) == {
        "order": [1, 2, 3, 4, 5, 6],
        "kalmanson": False,
        "equalities": 6,
        "violations": 9,
        "max_violation": "2/9",
    }


def test_kalmanson_report_passes_on_square(square_file, tmp_path, capsys):
    dist = str(tmp_path / "sq.dist")
    assert run(capsys, "dist", square_file, "-o", dist)[0] == 0
    code, out, _ = run(capsys, "kalmanson", dist, "--exact", "--order", "1,2,3,4")
    assert code == 0
    assert "kalmanson: true" in out.splitlines()
    assert "violations: 0" in out.splitlines()
    code, out, _ = run(
        capsys, "--json", "kalmanson", dist, "--exact", "--order", "1,2,3,4"
    )
    doc = json.loads(out)
    assert (doc["kalmanson"], doc["violations"]) == (True, 0)


@pytest.mark.parametrize("precision", ["-1", "0"])
def test_precision_below_one_is_usage_error(tmp_path, capsys, precision):
    net = square_with_pendants()
    path = tmp_path / "float.net"
    path.write_text(
        network_to_text(
            PhyloNetwork.build(
                net.leaves, [(u, v, float(w) * 1.37) for u, v, w in net.edge_items]
            )
        )
    )
    with pytest.raises(SystemExit) as info:
        main(["--precision", precision, "dist", str(path)])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --precision: must be at least 1" in out.err


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


def test_dist_minpath(square_file, capsys):
    assert run(capsys, "dist", square_file, "--metric", "minpath") == (
        0, "n 4\n1 2 3\n1 3 4\n1 4 3\n2 3 3\n2 4 4\n3 4 3\n", ""
    )


def test_dist_exact_reads_decimal_weights_as_rationals(tmp_path, capsys):
    path = tmp_path / "decimal.net"
    path.write_text("leaf 1 x1\nleaf 2 x2\nleaf 3 x3\n"
                    "edge x1 h 0.5\nedge x2 h 1.25\nedge x3 h 2\n")
    assert run(capsys, "dist", str(path)) == (0, "n 3\n1 2 1.75\n1 3 2.5\n2 3 3.25\n", "")
    assert run(capsys, "dist", str(path), "--exact") == (
        0, "n 3\n1 2 7/4\n1 3 5/2\n2 3 13/4\n", ""
    )


def test_exterior_of_an_unweighted_split_file_weighs_every_edge_one(tmp_path, capsys):
    path = tmp_path / "square.splits"
    path.write_text("n 4 order 1,2,3,4\n- | 1 | 2,3,4\n- | 1,3,4 | 2\n- | 1,2,4 | 3\n"
                    "- | 1,2,3 | 4\n- | 1,2 | 3,4\n- | 1,4 | 2,3\n")
    code, out, err = run(capsys, "exterior", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[5:] == [
        "edge v1 v2 1", "edge v1 v4 1", "edge v1 x1 1", "edge v2 v3 1",
        "edge v2 x2 1", "edge v3 v4 1", "edge v3 x3 1", "edge v4 x4 1",
    ]


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


def test_count_level1_every_k(capsys):
    assert run(capsys, "count", "--level", "1", "--n", "5") == (
        0, "k=0: 12\nk=1: 30\nk=2: 15\ntotal: 57\n", ""
    )
    code, out, _ = run(capsys, "--json", "count", "--level", "1", "--n", "5")
    assert json.loads(out) == {"per_k": {"0": 12, "1": 30, "2": 15}, "total": 57}


def test_count_level2_breakdown(capsys):
    code, out, _ = run(capsys, "count", "--level", "2", "--n", "5")
    assert code == 0
    assert "total: 120" in out
    assert "skeletons: 2" in out


# Skeleton indices are part of the output of count --level 2; these literals
# hold them, and the rest of the output, byte for byte.
_COUNT2_TEXT = {
    4: "skeleton 0: 6\ntotal: 6\nskeletons: 1\n",
    5: "skeleton 0: 60\nskeleton 1: 60\ntotal: 120\nskeletons: 2\n",
    6: (
        "skeleton 1: 900\nskeleton 2: 720\nskeleton 0: 540\nskeleton 3: 360\n"
        "skeleton 4: 180\nskeleton 5: 90\ntotal: 2790\nskeletons: 6\n"
    ),
}
_COUNT2_JSON = {
    4: '{\n  "rows": [\n    {\n      "count": 6,\n      "skeleton": 0\n    }\n  ],\n'
       '  "skeletons": 1,\n  "total": 6\n}\n',
    5: '{\n  "rows": [\n    {\n      "count": 60,\n      "skeleton": 0\n    },\n'
       '    {\n      "count": 60,\n      "skeleton": 1\n    }\n  ],\n'
       '  "skeletons": 2,\n  "total": 120\n}\n',
    6: '{\n  "rows": [\n'
       '    {\n      "count": 900,\n      "skeleton": 1\n    },\n'
       '    {\n      "count": 720,\n      "skeleton": 2\n    },\n'
       '    {\n      "count": 540,\n      "skeleton": 0\n    },\n'
       '    {\n      "count": 360,\n      "skeleton": 3\n    },\n'
       '    {\n      "count": 180,\n      "skeleton": 4\n    },\n'
       '    {\n      "count": 90,\n      "skeleton": 5\n    }\n  ],\n'
       '  "skeletons": 6,\n  "total": 2790\n}\n',
}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_count_level2_golden(capsys, n):
    assert run(capsys, "count", "--level", "2", "--n", str(n)) == (0, _COUNT2_TEXT[n], "")
    assert run(capsys, "--json", "count", "--level", "2", "--n", str(n)) == (
        0, _COUNT2_JSON[n], ""
    )


def test_count_level2_enumerates_bases_once(monkeypatch, capsys):
    # the skeleton census is the number of breakdown rows
    calls = []
    original = enum2._chordable_bases

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(enum2, "_chordable_bases", counted)
    assert run(capsys, "count", "--level", "2", "--n", "5") == (0, _COUNT2_TEXT[5], "")
    assert calls == [5]


def test_count_level2_rejects_k(capsys):
    # --k counts the internal bridges of level-1 networks; at level 2 it
    # has no meaning
    with pytest.raises(SystemExit) as info:
        main(["count", "--level", "2", "--n", "6", "--k", "1"])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --k: not allowed with --level 2" in out.err


def test_jc_commands(capsys):
    code, out, _ = run(capsys, "jc", "--m", "100", "--c", "26")
    assert code == 0
    assert out.startswith("D: 3.238")
    code, out, _ = run(capsys, "jc-parallel", "--m", "100", "--c1", "62.5")
    assert code == 0
    assert out.startswith("c: 78.03")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["jc", "--m", "nan", "--c", "1"], "m"),
        (["jc", "--m", "100", "--c", "nan"], "c"),
        (["jc-parallel", "--m", "nan", "--c1", "3"], "m"),
        (["jc-parallel", "--m", "100", "--c1", "nan"], "c1"),
    ],
)
def test_jc_nan_argument_exits_one(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: DomainError: {name} is NaN\n"


def test_jc_curve_csv(capsys):
    code, out, _ = run(capsys, "jc", "--m", "100", "--curve", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,D"
    assert len(lines) == 6


def test_jc_parallel_curve_csv(capsys):
    assert run(capsys, "jc-parallel", "--m", "100", "--curve", "4") == (
        0,
        "c1,c\n25.000000,25.000000\n43.750000,62.500000\n62.500000,78.033009\n"
        "81.250000,89.951905\n100.000000,100.000000\n",
        "",
    )


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


def test_scan_faithful_reports_a_system_it_cannot_invert(capsys):
    code, out, _ = run(capsys, "scan", "--conjecture", "faithful", "--trials", "4", "--seed", "0")
    assert code == 0
    assert out.splitlines()[4:] == [
        "trial 3: NOT-INVERTIBLE (no cycle shares leave a positive bridge weight"
        " for {1,4,5}|{2,3})",
        "# NOT-INVERTIBLE: 1",
        "# resistance-realizable: 3",
    ]


def test_scan_two_nested(capsys):
    code, out, _ = run(capsys, "scan", "--conjecture", "two-nested", "--trials", "4", "--seed", "7")
    assert code == 0


def test_scan_two_nested_reports_a_missing_witness(capsys):
    code, out, _ = run(capsys, "scan", "--conjecture", "two-nested", "--trials", "13", "--seed", "6")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "trial 12: kalmanson, no witness recovered", "# kalmanson: 6", "# skipped: 7",
    ]


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
    assert run(capsys, "jc-parallel", "--m", "100") == (
        2, "", "error: jc-parallel needs --c1 or --curve\n"
    )


def _forbid(monkeypatch, original):
    """Make every phylocircuit module's binding of ``original`` raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{original.__name__} called")

    for name, module in list(sys.modules.items()):
        if name.startswith("phylocircuit"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


def test_commands_never_enumerate_consistent_orders(monkeypatch, tmp_path, square_file, capsys):
    _forbid(monkeypatch, netgraph.consistent_orders)
    _forbid(monkeypatch, polytope.vertex_vector_by_orders)
    net_file = tmp_path / "two-cycles.net"
    net_file.write_text(network_to_text(two_cycles_with_bridge()))
    star_file = tmp_path / "star.net"
    star_file.write_text(network_to_text(star(5)))
    code, rw_out, _ = run(capsys, "rw", str(net_file))
    assert code == 0
    splits_file = tmp_path / "two-cycles.splits"
    splits_file.write_text(rw_out)
    for argv in (
        ["sigma", str(net_file)],
        ["invert", str(splits_file), "--exact"],
        ["sw", str(net_file)],
        ["scan", "--conjecture", "faithful", "--trials", "3", "--seed", "5"],
        ["xvector", str(star_file)],
        ["verify-face", str(star_file), "--metric", "resistance"],
        ["verify-face", str(star_file), "--metric", "minpath"],
        ["verify-face", square_file, "--metric", "resistance"],
        ["verify-face", square_file, "--metric", "minpath"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv


def test_commands_never_solve_for_resistance(monkeypatch, tmp_path, capsys):
    # rw reads a 1-nested network's splits off the circuit; the resistance
    # solve and its decomposition are the tests' oracle only
    _forbid(monkeypatch, metrics.resistance_vector)
    net_file = tmp_path / "two-cycles.net"
    net_file.write_text(network_to_text(two_cycles_with_bridge()))
    code, rw_out, _ = run(capsys, "rw", str(net_file))
    assert code == 0
    splits_file = tmp_path / "two-cycles.splits"
    splits_file.write_text(rw_out)
    for argv in (
        ["sigma", str(net_file)],
        ["exterior", str(splits_file), "--exact"],
        ["invert", str(splits_file), "--exact"],
        ["invert", str(splits_file)],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv


@pytest.mark.parametrize("command", ["kalmanson", "decompose"])
@pytest.mark.parametrize(
    "order, error",
    [
        ("1,2,x", "ValidationError: --order 1,2,x: "),
        ("2,3,4", "ValidationError: --order 2,3,4: "),
        ("1,2,3,4,5,9", "SizeMismatchError: order "),
        ("0,1,2,3,4,5", "SizeMismatchError: order "),
    ],
    ids=["not-an-integer", "without-leaf-1", "label-above-n", "label-zero"],
)
def test_bad_order_argument_exits_one(k33_dist_file, capsys, command, order, error):
    code, out, err = run(capsys, command, k33_dist_file, "--order", order)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {error}")
    assert err.count("\n") == 1


def test_rw_float_weights_independent_of_scale(tmp_path, capsys):
    # at weight scale 1e4 these resistance vectors fail the scan's absolute
    # tolerance, which the direct reading never applies
    rng = random.Random(4)
    path = tmp_path / "scaled.net"
    for _ in range(6):
        net = random_one_nested(rng.randint(6, 10), rng)
        scaled = PhyloNetwork.build(
            net.leaves,
            [(u, v, float(w) * 1e4) for u, v, w in net.edge_items],
            strict=True,
        )
        path.write_text(network_to_text(scaled, precision=17))
        code, out, err = run(capsys, "--json", "--precision", "17", "rw", str(path))
        assert code == 0, err
        got = {
            (tuple(s["side_a"]), tuple(s["side_b"])): float(s["weight"])
            for s in json.loads(out)["splits"]
        }
        want = {
            (s.side_a, s.side_b): float(w) * 1e4
            for s, w in decomposed_resistance_splits(net).entries
        }
        assert got.keys() == want.keys()
        top = max(want.values())
        assert all(abs(got[key] - w) <= 1e-9 * top for key, w in want.items())
