"""Command-line interface: schemas, exit codes, determinism."""

import json

import pytest

from ellstab import rmatrix
from ellstab.cli import main
from ellstab.rmatrix import (FramingGroup, composition_residual, inverted_kahler,
                             transition_r, transition_r_star,
                             transpose_relation_residual)
from ellstab.sampling import sample_param_point


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_fixed_points_command(capsys):
    code, doc = run(capsys, ["fixed-points", "--N", "3", "--w", "1,0,0",
                             "--v", "1,1,1"])
    assert code == 0
    assert doc["results"]["count"] == 3
    assert [[3]] in doc["results"]["labels"]
    assert {"seed", "param_point", "residuals", "timings"} <= set(doc)


def test_shuffle_check_command(capsys):
    code, doc = run(capsys, ["shuffle-check", "--N", "3", "--boxes", "1,1",
                             "--seed", "7", "--assignments", "2"])
    assert code == 0
    assert doc["residuals"]["worst"] < 1e-8


def test_vertex_degree_zero_law(capsys):
    code, doc = run(capsys, ["vertex", "--N", "3", "--w", "1,0,0",
                             "--v", "1,1,1", "--D", "2"])
    assert code == 0
    d0 = doc["results"]["coefficients"]["0,0,0"]
    env = doc["results"]["envelope_at_mu"]
    assert d0 == env


def test_rmatrix_command(capsys):
    code, doc = run(capsys, ["rmatrix", "--N", "3", "--v", "1,0,0",
                             "--w1", "1,0,0", "--w2", "1,0,0"])
    assert code == 0
    assert len(doc["results"]["matrix"]) == 2
    assert doc["residuals"]["composition"] < 1e-8
    assert doc["residuals"]["weight_blocks"] < 1e-10


def test_rmatrix_star_composition_checks_the_starred_matrix(capsys):
    """With --star the matrix sits at inverted Kahler arguments, and so must
    the composition residual printed beside it."""
    code, doc = run(capsys, ["rmatrix", "--N", "3", "--v", "1,0,0",
                             "--w1", "1,0,0", "--w2", "1,0,0", "--star",
                             "--seed", "0"])
    assert code == 0
    g1, g2 = FramingGroup((1, 0, 0), "ua"), FramingGroup((1, 0, 0), "ub")
    pp = sample_param_point(0, 3, framing_counts={"ua": [1, 0, 0],
                                                  "ub": [1, 0, 0]})
    want = composition_residual((1, 0, 0), g1, g2, pp, 3, star=True,
                                kahler=inverted_kahler(3))
    assert doc["residuals"]["composition"] == want


@pytest.mark.parametrize("star, builds", [(False, 2), (True, 4)])
def test_rmatrix_builds_each_restriction_matrix_once(capsys, monkeypatch,
                                                     star, builds):
    """The printed matrix, its composition and (with --star) the transpose
    relation come from the distinct restriction matrices of the call, each
    built once, and equal the library's independent calls bit for bit."""
    calls = []
    build = rmatrix.restriction_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rmatrix, "restriction_matrix", counted)
    argv = ["rmatrix", "--N", "3", "--v", "1,1,0", "--w1", "1,0,0",
            "--w2", "0,1,0", "--seed", "4"]
    code, doc = run(capsys, argv + (["--star"] if star else []))
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == builds
    g1, g2 = FramingGroup((1, 0, 0), "ua"), FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(4, 3, framing_counts={"ua": [1, 0, 0],
                                                  "ub": [0, 1, 0]})
    v = (1, 1, 0)
    kahler = inverted_kahler(3) if star else None
    res = (transition_r_star if star else transition_r)(v, g1, g2, pp, 3)
    assert doc["results"]["matrix"] == [[[z.real, z.imag] for z in row]
                                        for row in res.full]
    assert doc["residuals"]["composition"] == composition_residual(
        v, g1, g2, pp, 3, star=star, kahler=kahler)
    if star:
        assert doc["residuals"]["transpose_relation"] == (
            transpose_relation_residual(v, g1, g2, pp, 3))


def test_ybe_command(capsys):
    code, doc = run(capsys, ["ybe", "--N", "3", "--boxes", "1", "--seed", "2"])
    assert code == 0
    assert doc["residuals"]["ybe"] < 1e-7


def test_fock_command(capsys):
    code, doc = run(capsys, ["fock", "--N", "3", "--k", "0",
                             "--partition", "[2,1]"])
    assert code == 0
    assert doc["residuals"]["dual_forms"] < 1e-10


def test_bethe_command(capsys):
    code, doc = run(capsys, ["bethe", "--N", "3", "--w", "1,0,0",
                             "--v", "1,0,0"])
    assert code == 0
    assert doc["results"]["converged"]


def test_scalars_command(capsys):
    code, doc = run(capsys, ["scalars", "--N", "3", "--points", "2"])
    assert code == 0
    assert doc["residuals"]["rll_worst"] < 1e-7


def test_results_deterministic_apart_from_timings(capsys):
    argv = ["vertex", "--N", "3", "--w", "1,0,0", "--v", "1,1,0",
            "--D", "2", "--seed", "5"]
    _, doc1 = run(capsys, argv)
    _, doc2 = run(capsys, argv)
    doc1.pop("timings")
    doc2.pop("timings")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["vertex", "--w", "1,0,0", "--v", "0,1,0"], "0 fixed points"),
    (["vertex", "--w", "1,0,0", "--v", "1,1,1", "--lam", "5"], "--lam 5"),
    (["vertex", "--w", "1,0,0", "--v", "1,1,1", "--lam", "-1"], "--lam -1"),
    (["vertex", "--w", "1,0,0", "--v", "1,1,1", "--mu", "3"], "--mu 3"),
    (["fixed-points", "--N", "3", "--w", "1,0", "--v", "1,0,0"], "--w has 2"),
    (["bethe", "--w", "1,0,0", "--v", "1,1"], "--v has 2"),
    (["rmatrix", "--v", "1,0,0", "--w1", "1,0,0", "--w2", "1,0,0,0"],
     "--w2 has 4"),
    (["stab", "--N", "4", "--w", "1,0,0", "--fp", "[[1]]"], "--N is 4"),
    (["shuffle-check", "--boxes", "1"], "--boxes has 1"),
    (["shuffle-check", "--boxes", "1,1,1"], "--boxes has 3"),
    (["shuffle-check", "--boxes", "1,1", "--color2", "3"], "--color2 3"),
    (["shuffle-check", "--boxes", "1,1", "--color2", "-1"], "--color2 -1"),
    (["ybe", "--colors", "0,0"], "--colors has 2"),
    (["ybe", "--colors", "0,0,0,1"], "--colors has 4"),
    (["ybe", "--colors", "0,0,-1"], "--colors -1"),
    (["ybe", "--colors", "0,3,0"], "--colors 3"),
    (["bethe", "--w", "1,0,0", "--v", "1,-1,0"], "--v 1,-1,0 has a negative"),
    (["bethe", "--w=-1,0,0", "--v", "0,0,0"], "--w -1,0,0 has a negative"),
    (["bethe", "--w", "0,0,0", "--v", "1,0,0"], "--v 1,0,0 has 0 fixed points"),
    (["vertex", "--w", "1,0,0", "--v", "1,1,1", "--D", "-1"], "--D -1"),
    (["fixed-points", "--w", "1,0,0", "--v", "0,-2,0"], "--v 0,-2,0"),
    (["rmatrix", "--v", "1,0,0", "--w1", "1,0,0", "--w2", "0,-1,0"],
     "--w2 0,-1,0"),
])
def test_bad_option_values_are_usage_errors(capsys, argv, message):
    """A vector of the wrong length or with a negative entry, a color outside
    0..N-1, a fixed-point index outside the basis, a negative degree cap or
    a profile without fixed points is a usage error with a message, not a
    failed check."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_singularity_exit_code(capsys):
    # the divergent off-diagonal normalization surfaces as exit code 3
    code = main(["vertex", "--N", "3", "--w", "1,0,0", "--v", "1,1,1",
                 "--D", "1", "--lam", "1", "--mu", "2"])
    capsys.readouterr()
    assert code == 3
