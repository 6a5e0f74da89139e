import json

import numpy as np
import pytest

from graphchoice import cli, graphs


def test_complete_graph_is_valid():
    g = graphs.make_complete(4)
    assert graphs.validate(g) == []
    assert g.neighbors(1) == (1, 2, 3, 4)


def test_linear_chain_with_self_loops_is_valid():
    g = graphs.make_linear(4)
    assert graphs.validate(g) == []
    assert g.neighbors(1) == (1, 2)
    assert g.neighbors(2) == (1, 2, 3)
    assert g.neighbors(4) == (3, 4)


def test_missing_self_loop_is_reported():
    # chain 1-2-3-4 with all self-loops except node 2
    edges = [(1, 2), (2, 3), (3, 4), (1, 1), (3, 3), (4, 4),
             (2, 1), (3, 2), (4, 3)]
    g = graphs.from_edges(4, edges, repair=False)
    assert "no self-loop at 2" in graphs.validate(g)


def test_asymmetric_edge_is_reported():
    g = graphs.from_edges(2, [(1, 1), (2, 2), (1, 2)], repair=False)
    issues = graphs.validate(g)
    assert any("not reciprocated" in s for s in issues)


def test_disconnected_graph_is_reported():
    g = graphs.from_edges(4, [(1, 2), (3, 4)], repair=True)
    issues = graphs.validate(g)
    assert any("not reachable" in s for s in issues)


def test_two_cliques_shape():
    g = graphs.make_two_cliques(2, 8)
    assert g.m == 10
    assert graphs.validate(g) == []
    # cliques internally complete
    assert g.neighbors(1) == (1, 2, 3)        # bridge from node 1 to node 3
    assert g.neighbors(2) == (1, 2)
    assert g.neighbors(3) == (1, 3, 4, 5, 6, 7, 8, 9, 10)
    for i in range(4, 11):
        assert g.neighbors(i) == tuple(range(3, 11))


def test_star_neighborhoods():
    g = graphs.make_star(4, 4)
    assert g.neighbors(4) == (1, 2, 3, 4)
    assert g.neighbors(1) == (1, 4)
    assert graphs.validate(g) == []


def test_complete2_equals_linear2():
    assert graphs.make_complete(2).nbrs == graphs.make_linear(2).nbrs


def test_adjacency_matrix_examples():
    assert np.array_equal(graphs.adjacency_matrix(graphs.make_complete(3)),
                          np.ones((3, 3), dtype=np.int64))
    lin = graphs.adjacency_matrix(graphs.make_linear(3))
    assert np.array_equal(lin, np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    star = graphs.adjacency_matrix(graphs.make_star(3, 3))
    assert star[0, 1] == 0 and star[0, 2] == 1 and star[1, 2] == 1
    assert np.array_equal(np.diag(star), np.ones(3, dtype=np.int64))


@pytest.mark.parametrize("bad", [0, 1])
def test_invalid_sizes_rejected(bad):
    with pytest.raises(ValueError):
        graphs.make_complete(bad)
    with pytest.raises(ValueError):
        graphs.make_linear(bad)
    with pytest.raises(ValueError):
        graphs.make_star(bad, 1)
    with pytest.raises(ValueError):
        graphs.make_two_cliques(bad, 0)


def test_generator_outputs_always_validate():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(2, 12))
        for g in (graphs.make_complete(m), graphs.make_linear(m),
                  graphs.make_star(m, int(rng.integers(1, m + 1))),
                  graphs.make_two_cliques(int(rng.integers(1, 6)),
                                          int(rng.integers(1, 6)))):
            assert graphs.validate(g) == []
            a = graphs.adjacency_matrix(g)
            assert np.array_equal(a, a.T)
            assert np.array_equal(np.diag(a), np.ones(g.m, dtype=np.int64))


def test_uniform_kernel_is_irreducible_by_matrix_reachability():
    # with eps = 1 the move kernel is uniform on N(i); reachability of its
    # support must cover all node pairs for a valid graph
    for g in (graphs.make_linear(5), graphs.make_star(6, 2),
              graphs.make_two_cliques(3, 4)):
        a = g.adjacency_bool
        reach = np.eye(g.m, dtype=bool)
        for _ in range(g.m):
            reach = reach | (reach @ a)
        assert reach.all()


def test_json_round_trip(tmp_path):
    g = graphs.make_two_cliques(2, 3)
    path = tmp_path / "g.json"
    graphs.save_graph(g, path)
    g2, notes = graphs.load_graph(path)
    assert notes != []  # self-loops are not serialized, loader restores them
    assert g2.nbrs == g.nbrs


def test_loader_repairs_asymmetry(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"m": 3, "edges": [[1, 2], [2, 3]]}))
    g, notes = graphs.load_graph(path)
    assert graphs.validate(g) == []
    assert any("self-loop" in n for n in notes)
    raw, _ = graphs.load_graph(path, repair=False)
    assert graphs.validate(raw) != []


PATH_EDGES = [[1, 2], [2, 3], [3, 4]]


@pytest.mark.parametrize("doc", [
    {"m": 4.9, "edges": PATH_EDGES}, {"m": "4", "edges": PATH_EDGES},
    {"m": True, "edges": PATH_EDGES}, {"m": 4, "edges": [[1, 2.7], [2, 3]]},
    {"m": 4, "edges": [["1", 2], [2, 3]]}, {"m": 4, "edges": [[1, True]]},
    {"m": 4, "edges": {"12": [2, 3]}}, {"m": 4, "edges": [[1, 2, 3]]},
    {"m": 4, "edges": ["12", [2, 3]]}],
    ids=["m-fraction", "m-string", "m-bool", "edge-fraction", "edge-string",
         "edge-bool", "edges-dict", "edge-triple", "edge-string-pair"])
def test_graph_file_needs_integral_m_and_integer_pairs(tmp_path, capsys, doc):
    # nothing is truncated or unpacked into a graph: validate exits 2
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be"):
        graphs.load_graph(path)
    assert cli.main(["validate", "--graph", str(path)]) == 2
    assert "OK" not in capsys.readouterr().out


@pytest.mark.parametrize("text, reason", [
    ('{"m": 4.9, "edges": [[1, 2]]}', "m must be an integer, got 4.9"),
    ('{"m": 4, ', "Expecting property name enclosed in double quotes: "
                 "line 1 column 10 (char 9)"),
    (None, "No such file or directory")],
    ids=["m-fraction", "malformed-json", "missing-file"])
def test_graph_file_error_names_the_file_once(tmp_path, capsys, text, reason):
    path = tmp_path / "g.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["validate", "--graph", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": f"bad graph file {str(path)!r}: {reason}"}


def test_graph_file_takes_integral_floats(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"m": 4.0, "edges": [[1, 2.0], [2, 3], [3, 4]]}))
    assert graphs.load_graph(path)[0].nbrs == graphs.make_linear(4).nbrs
