import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import localhomology
from localhomology import (
    complex_to_json_dict,
    dump_complex,
    flag_complex,
    format_edge_list,
    karate_graph,
    profile_many,
    profiles_to_csv,
    read_edge_list,
)
from localhomology.cli import main

from util import annulus_complex, tetrahedron_boundary


@pytest.fixture
def tetra_json(tmp_path):
    path = tmp_path / "tetra.json"
    dump_complex(tetrahedron_boundary(), path)
    return str(path)


@pytest.fixture
def annulus_json(tmp_path):
    complex, boundary, interior = annulus_complex()
    path = tmp_path / "annulus.json"
    dump_complex(complex, path)
    return str(path), complex, boundary, interior


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, reported by argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_numpy():
    # Only pearson and random_walk_betweenness use numpy, and they import it
    # themselves, so start-up and every command that computes no
    # correlation do without it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(localhomology.__file__)))
    code = "import sys, localhomology, localhomology.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_betti_command(tetra_json, capsys):
    code, out, _ = run(capsys, "betti", tetra_json)
    assert code == 0
    assert json.loads(out) == {"betti": [1, 0, 1]}


def test_local_command_marks_annulus_boundary(annulus_json, capsys):
    path, complex, boundary, interior = annulus_json
    code, out, _ = run(capsys, "local", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("simplex;dim;m;")
    by_simplex = {}
    for line in lines[1:]:
        fields = line.split(";")
        simplex = tuple(int(t) for t in fields[0].split(","))
        by_simplex[simplex] = fields[-1]
    for simplex in boundary:
        assert by_simplex[simplex] == "boundary-like"
    for simplex in interior:
        assert by_simplex[simplex] == "manifold-interior(2)"


def test_local_command_single_simplex(tetra_json, capsys):
    code, out, _ = run(capsys, "local", tetra_json, "--simplex", "0,1", "--m", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header plus two levels
    assert lines[1].split(";")[0] == "0,1"


def test_strat_command(tetra_json, capsys):
    code, out, _ = run(capsys, "strat", tetra_json, "--dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["homology_manifold"] is True
    assert payload["ramification_simplices"] == []


def test_flag_command_round_trips_with_library(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("n=4\n0 1\n1 2\n0 2\n2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "flag", str(edges))
    assert code == 0
    graph = read_edge_list(edges)
    assert json.loads(out) == json.loads(
        json.dumps(complex_to_json_dict(flag_complex(graph)), sort_keys=True)
    )


def test_flag_then_local_matches_in_process(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("n=4\n0 1\n1 2\n0 2\n2 3\n", encoding="utf-8")
    code, flag_out, _ = run(capsys, "flag", str(edges))
    complex_path = tmp_path / "flag.json"
    complex_path.write_text(flag_out, encoding="utf-8")
    code, local_out, _ = run(capsys, "local", str(complex_path), "--m", "1")
    assert code == 0
    complex = flag_complex(read_edge_list(edges))
    expected = profiles_to_csv(complex, profile_many(complex, m_max=1))
    assert local_out == expected


def test_correlate_karate_contains_reference_cell(capsys):
    code, out, err = run(
        capsys, "correlate", "--dataset", "karate", "--subject", "vertex", "--m", "0", "--k", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "invariant,beta_k,N_m,subject,rho"
    row = next(line for line in lines if line.startswith("degree_centrality,1,0,"))
    rho = float(row.split(",")[-1])
    assert abs(rho - 0.700) < 0.01


def test_correlate_needs_exactly_one_source(capsys):
    code, out, err = run(capsys, "correlate")
    assert code == 1 and out == ""
    code, out, err = run(capsys, "correlate", "x.txt", "--dataset", "karate")
    assert code == 1 and out == ""


def test_correlate_rejects_degree_zero(capsys):
    # The table has homology degrees 1..k only; degree 0 is malformed input.
    code, out, err = run(capsys, "correlate", "--dataset", "karate", "--k", "0,1", "--m", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_correlate_scatter_files(tmp_path, capsys):
    scatter = tmp_path / "scatter"
    code, _, _ = run(
        capsys,
        "correlate",
        "--dataset",
        "karate",
        "--m",
        "0",
        "--k",
        "1",
        "--scatter-dir",
        str(scatter),
    )
    assert code == 0
    files = sorted(p.name for p in scatter.iterdir())
    assert "scatter_degree_centrality_beta1_N0.csv" in files
    text = (scatter / files[0]).read_text(encoding="utf-8")
    assert text.splitlines()[0] == "x,y"


def test_generate_er_deterministic(capsys):
    code, first, _ = run(capsys, "generate", "er", "--n", "12", "--edges", "20", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "generate", "er", "--n", "12", "--edges", "20", "--seed", "7")
    assert first == second
    assert first.splitlines()[0] == "n=12"
    assert len(first.splitlines()) == 21


# The options of each generator family other than the shared --seed and --out.
FAMILIES = {
    "er": "--n 12 --edges 20",
    "ba": "--n 10 --attach 2",
    "planar": "--width 3 --height 3 --diag-prob 0.5",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_requires_seed(family, capsys):
    code, out, err = run(capsys, "generate", family, *FAMILIES[family].split())
    assert code == 1
    assert out == ""
    assert "--seed" in err


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_out_writes_the_stdout_bytes(family, tmp_path, capsys):
    argv = ["generate", family, *FAMILIES[family].split(), "--seed", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("n=")
    target = tmp_path / "graph.txt"
    code, rest, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and rest == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_generate_ba_and_planar(tmp_path, capsys):
    from localhomology import parse_edge_list

    out_path = tmp_path / "ba.txt"
    code, _, _ = run(
        capsys, "generate", "ba", "--n", "10", "--attach", "2", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    assert read_edge_list(out_path).edge_count == 16
    code, out, _ = run(
        capsys, "generate", "planar", "--width", "3", "--height", "3", "--diag-prob", "1.0", "--seed", "3"
    )
    assert code == 0
    assert parse_edge_list(out).edge_count == 12 + 4


@pytest.mark.parametrize(
    "argv",
    [
        "er --n 5 --edges -1 --seed 1",
        "er --n -3 --edges 2 --seed 1",
        "planar --width 3 --height 3 --diag-prob 2 --seed 1",
        "planar --width 3 --height 3 --diag-prob -0.5 --seed 1",
    ],
)
def test_generate_rejects_out_of_range_parameters(argv, capsys):
    code, out, err = run(capsys, "generate", *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must" in err


def test_local_csv_file_output(tetra_json, tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "local", tetra_json, "--csv", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("simplex;dim;m;")


def _assert_clean_failure(code, out, err):
    # A write failure is reported on one error line, with no traceback, and
    # since files are written before stdout, nothing reaches stdout.
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot ") and "Traceback" not in err


def test_local_csv_to_a_missing_directory_fails_cleanly(tetra_json, tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, out, err = run(capsys, "local", tetra_json, "--csv", str(target))
    _assert_clean_failure(code, out, err)
    assert str(target) in err


def test_generate_out_to_a_directory_fails_cleanly(tmp_path, capsys):
    code, out, err = run(capsys, "generate", "er", "--n", "5", "--edges", "6", "--seed", "1", "--out", str(tmp_path))
    _assert_clean_failure(code, out, err)
    assert str(tmp_path) in err


def test_correlate_unwritable_scatter_dir_fails_cleanly(tmp_path, capsys):
    # The directory cannot be made (a file, or under a file), or a scatter
    # file's name is taken by a directory.
    blocker = tmp_path / "file.txt"
    blocker.write_text("", encoding="utf-8")
    taken = tmp_path / "taken"
    (taken / "scatter_degree_centrality_beta1_N0.csv").mkdir(parents=True)
    for scatter in (blocker, blocker / "scatter", taken):
        code, out, err = run(capsys, "correlate", "--dataset", "karate", "--m", "0", "--k", "1", "--scatter-dir", str(scatter))
        _assert_clean_failure(code, out, err)
        assert str(scatter) in err


def test_strat_output_identical_across_runs(tetra_json, capsys):
    code, one, _ = run(capsys, "strat", tetra_json, "--dim", "2")
    code, two, _ = run(capsys, "strat", tetra_json, "--dim", "2")
    assert one == two


def test_dataset_karate(capsys):
    code, out, _ = run(capsys, "dataset", "karate")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n=34"
    assert len(lines) == 79


def test_exit_code_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "betti", str(bad))
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_exit_code_missing_file(capsys):
    code, out, err = run(capsys, "betti", "/nonexistent/complex.json")
    assert code == 1
    assert out == ""


def test_exit_code_unknown_simplex(tetra_json, capsys):
    code, out, err = run(capsys, "local", tetra_json, "--simplex", "0,9")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "command",
    [
        "local TETRA --simplex",
        "local TETRA --csv",
        "generate er --n 5 --edges 6 --seed 1 --out",
        "correlate --dataset karate --m 0 --k 1 --scatter-dir",
    ],
)
def test_empty_option_values_are_refused(command, tetra_json, tmp_path, monkeypatch, capsys):
    # An empty value is not "no value": it is refused, and an empty path
    # does not stand for stdout or for the working directory.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = [tetra_json if token == "TETRA" else token for token in command.split()]
    code, out, err = run(capsys, *argv, "")
    assert code == 1
    assert out == ""
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("value", ["1_0", "+2", "\u0663"])
@pytest.mark.parametrize(
    "command",
    [
        "local TETRA --m",
        "strat TETRA --dim",
        "correlate --dataset karate --k 1 --m",
        "correlate --dataset karate --m 0 --k",
        "generate er --n 5 --edges 6 --seed",
        "generate er --n 5 --seed 1 --edges",
        "generate ba --attach 2 --seed 1 --n",
        "generate ba --n 5 --seed 1 --attach",
        "generate planar --height 3 --diag-prob 0.5 --seed 1 --width",
        "generate planar --width 3 --diag-prob 0.5 --seed 1 --height",
    ],
)
def test_integer_options_are_ascii_digits_only(command, value, tetra_json, capsys):
    # The edge-list rule: int() alone would read "1_0" as 10, "+2" as 2 and
    # the Arabic-Indic digit three as 3.
    argv = [tetra_json if token == "TETRA" else token for token in command.split()]
    code, out, err = run(capsys, *argv, value)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "value, code",
    [
        # float() alone reads each of these; the ASCII rule refuses them as malformed.
        ("٠.٥", 1),
        ("0_5", 1),
        ("+0.5", 1),
        ("nan", 1),
        ("inf", 1),
        ("1.", 1),
        (".5", 1),
        # In the syntax: the generator's range check decides.
        ("0.5", 0),
        ("5e-1", 0),
        ("1", 0),
        ("5E1", 2),
    ],
)
def test_diag_prob_is_an_ascii_decimal(value, code, capsys):
    argv = ["generate", "planar", "--width", "3", "--height", "3", "--seed", "1", "--diag-prob"]
    got, out, err = run(capsys, *argv, value)
    assert got == code
    if code:
        assert out == ""
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert "Traceback" not in err
    else:  # the graph of the value float() reads
        assert out == run(capsys, *argv, repr(float(value)))[1]


@pytest.mark.parametrize(
    "command, text, code",
    [
        # A list is not a hashable vertex label.
        ("betti", '{"maximal_simplices": [[[1], 2]]}', 1),
        ("local", '{"maximal_simplices": [[[1], 2]]}', 1),
        # "--5" and "\u00b2" are string labels, not ids below a declared count.
        ("flag", "n=4\n--5 3\n", 1),
        ("flag", "n=4\n1 \u00b2\n", 1),
        # String labels that no vertex of the complex carries.
        ("local --simplex=--1", '{"maximal_simplices": [[0, 1]]}', 2),
        ("local --simplex=\u00b2", '{"maximal_simplices": [[0, 1]]}', 2),
        # A label repeated within a simplex is malformed, not an unknown face.
        ("local --simplex=0,0", '{"maximal_simplices": [[0, 1]]}', 1),
        # Vertex ids that do not index the "labels" array.
        ("betti", '{"maximal_simplices": [[-1, 0]], "labels": ["a", "b"]}', 1),
        ("betti", '{"maximal_simplices": [[true, 0]], "labels": ["a", "b"]}', 1),
    ],
    ids=[
        "betti-list", "local-list", "flag-dashes", "flag-superscript",
        "simplex-dashes", "simplex-superscript", "simplex-repeated", "betti-negative-id",
        "betti-bool-id",
    ],
)
def test_bad_labels_exit_with_an_error_line(command, text, code, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    name, *options = command.split()
    got, out, err = run(capsys, name, str(path), *options)
    assert got == code
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_exit_code_disconnected_correlate(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("n=4\n0 1\n2 3\n", encoding="utf-8")
    code, out, err = run(capsys, "correlate", str(edges))
    assert code == 2
    assert out == ""


def test_correlate_output_byte_identical_across_runs(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("n=5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n", encoding="utf-8")
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "correlate", str(edges), "--m", "0,1", "--k", "1,2")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# sha256 of `correlate --dataset karate` stdout and of every --scatter-dir file,
# recorded before the invariants moved to integer Brandes and sorted-potential
# current flow. Scores print with .10g, so any moved digit changes a digest.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "karate_correlate_sha256.json").read_text(encoding="utf-8")
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("options", sorted(GOLDEN["stdout"]))
def test_correlate_karate_byte_identical_to_golden(options, tmp_path, capsys):
    scatter = tmp_path / "scatter"
    code, out, _ = run(
        capsys, "correlate", "--dataset", "karate", *options.split(), "--scatter-dir", str(scatter)
    )
    assert code == 0
    assert sha256(out.encode("utf-8")) == GOLDEN["stdout"][options]
    written = {p.name: sha256(p.read_bytes()) for p in scatter.iterdir()}
    golden = GOLDEN["scatter"][options.split()[1]]
    if "--m" in options:
        assert written and all(golden[name] == digest for name, digest in written.items())
    else:
        assert written == golden


# sha256 of stdout for fixed CLI commands, recorded before DatasetSpec and
# the CLI's own strat loop were removed. The placeholders name input files
# that cli_stdout writes first: the karate flag complex and the annulus.
CLI_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text(encoding="utf-8")
)


def cli_stdout(command: str, tmp_dir: Path) -> bytes:
    """Run one CLI command line in process; return its stdout bytes."""
    inputs = {
        "KARATE_EDGES": tmp_dir / "karate.txt",
        "KARATE": tmp_dir / "karate.json",
        "ANNULUS": tmp_dir / "annulus.json",
    }
    inputs["KARATE_EDGES"].write_text(format_edge_list(karate_graph()), encoding="utf-8")
    dump_complex(flag_complex(karate_graph()), inputs["KARATE"])
    dump_complex(annulus_complex()[0], inputs["ANNULUS"])
    argv = [str(inputs.get(token, token)) for token in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_stdout_byte_identical_to_golden(command, tmp_path):
    assert sha256(cli_stdout(command, tmp_path)) == CLI_GOLDEN[command]
