"""Unit tests for quadric error metrics and the collapse engine."""

import numpy as np
import pytest

from repro.errors import SimplificationError
from repro.testkit.reference import dijkstra_reference as dijkstra
from repro.testkit.reference import edge_network_reference
from repro.simplification.collapse import build_collapse_history
from repro.simplification.quadric import (
    best_merge_position,
    face_quadric,
    quadric_error,
    vertex_quadrics,
)


class TestQuadrics:
    def test_on_plane_zero_error(self):
        q = face_quadric((0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert quadric_error(q, (0.3, 0.3, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert quadric_error(q, (5.0, -7.0, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_off_plane_squared_distance(self):
        q = face_quadric((0, 0, 0), (1, 0, 0), (0, 1, 0))
        # Unit-area weighting: the triangle has area 0.5.
        assert quadric_error(q, (0.0, 0.0, 2.0)) == pytest.approx(0.5 * 4.0)

    def test_degenerate_face_zero_quadric(self):
        q = face_quadric((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert np.allclose(q, 0.0)

    def test_vertex_quadrics_shape(self, flat_mesh):
        q = vertex_quadrics(flat_mesh)
        assert q.shape == (flat_mesh.num_vertices, 4, 4)
        # Flat mesh: every vertex lies on the common plane z=0.
        for vid in range(0, flat_mesh.num_vertices, 13):
            err = quadric_error(q[vid], flat_mesh.vertices[vid])
            assert err == pytest.approx(0.0, abs=1e-6)

    def test_quadric_error_bad_shape(self):
        with pytest.raises(SimplificationError):
            quadric_error(np.zeros((3, 3)), (0, 0, 0))

    def test_best_merge_position_prefers_plane(self):
        q = face_quadric((0, 0, 0), (1, 0, 0), (0, 1, 0))
        pos, err = best_merge_position(q, (0.0, 0.0, 1.0), (1.0, 0.0, -1.0))
        assert err <= quadric_error(q, (0.0, 0.0, 1.0)) + 1e-12


class TestCollapseHistory:
    @pytest.fixture(scope="class")
    def history(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        return build_collapse_history(mesh)

    def test_tree_shape(self, history, rough_mesh):
        n = rough_mesh.num_vertices
        assert history.num_leaves == n
        assert len(history.nodes) == 2 * n - 1
        assert len(history.roots) == 1

    def test_parents_and_children_consistent(self, history):
        for node in history.nodes:
            if node.children is not None:
                a, b = node.children
                assert history.nodes[a].parent == node.node_id
                assert history.nodes[b].parent == node.node_id
                assert history.nodes[a].death_step == node.birth_step

    def test_errors_monotone_up_the_tree(self, history):
        for node in history.nodes:
            if node.children is not None:
                for child in node.children:
                    assert history.nodes[child].error < node.error

    def test_rep_is_descendant_leaf(self, history):
        for node in history.nodes:
            if node.children is None:
                assert node.rep == node.node_id
            else:
                # Walk down following rep-carrying children.
                rep = node.rep
                stack = [node.node_id]
                found = False
                while stack:
                    nid = stack.pop()
                    current = history.nodes[nid]
                    if current.children is None:
                        if nid == rep:
                            found = True
                            break
                    else:
                        stack.extend(current.children)
                assert found

    def test_cut_sizes(self, history):
        n = history.num_leaves
        assert len(history.cut_at_step(0)) == n
        assert len(history.cut_at_step(history.num_steps)) == 1
        mid = history.step_for_fraction(0.5)
        assert len(history.cut_at_step(mid)) == pytest.approx(n / 2, abs=2)

    def test_bad_fraction(self, history):
        with pytest.raises(SimplificationError):
            history.step_for_fraction(0.0)
        with pytest.raises(SimplificationError):
            history.step_for_fraction(1.5)

    def test_cut_edges_within_cut(self, history):
        cut = history.cut_at_step(history.step_for_fraction(0.3))
        alive = set(cut)
        for u, w, d in history.edges_of_cut(cut):
            assert u in alive and w in alive
            assert d > 0

    def test_cut_network_connected(self, history):
        """Any cut of a connected terrain must form a connected
        network — otherwise upper bounds would be undefined."""
        for fraction in (0.1, 0.5, 1.0):
            cut = history.cut_at_step(history.step_for_fraction(fraction))
            index = {n: i for i, n in enumerate(cut)}
            adj = [[] for _ in cut]
            for u, w, d in history.edges_of_cut(cut):
                adj[index[u]].append((index[w], d))
                adj[index[w]].append((index[u], d))
            reached = dijkstra(adj, 0)
            assert len(reached) == len(cut)

    def test_ancestor_offsets(self, history, rough_mesh):
        """ancestor_at_step returns a valid (node, offset) pair: the
        node is alive and the offset is a non-negative path length."""
        step = history.step_for_fraction(0.25)
        for leaf in range(0, history.num_leaves, 29):
            anc, offset = history.ancestor_at_step(leaf, step)
            assert history.nodes[anc].alive_at(step)
            assert offset >= 0.0

    def test_leaf_edges_match_mesh(self, history, rough_mesh):
        cut = history.cut_at_step(0)
        edges = {(u, w) for u, w, _d in history.edges_of_cut(cut)}
        assert len(edges) == rough_mesh.num_edges

    def test_recorded_distances_are_rep_paths(self, history, rough_mesh):
        """Every recorded DDM distance equals the length of some path
        between the two representatives in the original edge network —
        i.e. it is >= the true network distance between the reps."""
        adj = edge_network_reference(rough_mesh)
        step = history.step_for_fraction(0.4)
        cut = history.cut_at_step(step)
        checked = 0
        for u, w, d in history.edges_of_cut(cut):
            rep_u = history.nodes[u].rep
            rep_w = history.nodes[w].rep
            dn = dijkstra(adj, rep_u, targets={rep_w}).get(rep_w)
            assert dn is not None
            assert d >= dn - 1e-9
            checked += 1
            if checked >= 25:
                break
