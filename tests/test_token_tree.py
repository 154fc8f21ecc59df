"""Tests for the draft token tree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.decoding.token_tree import TokenTree


def build_sample_tree():
    """Root-level fork, one side extended: mirrors paper Fig. 4."""
    tree = TokenTree()
    a = tree.add(10)
    b = tree.add(20)
    a1 = tree.add(11, parent=a)
    a2 = tree.add(12, parent=a1)
    b1 = tree.add(21, parent=b)
    return tree, (a, b, a1, a2, b1)


class TestConstruction:
    def test_add_and_parents(self):
        tree, (a, b, a1, a2, b1) = build_sample_tree()
        assert len(tree) == 5
        assert tree.nodes[a1].parent == a
        assert a1 in tree.nodes[a].children
        tree.validate()

    def test_bad_parent_rejected(self):
        tree = TokenTree()
        with pytest.raises(IndexError):
            tree.add(1, parent=5)

    def test_add_chain(self):
        tree = TokenTree()
        nodes = tree.add_chain([1, 2, 3])
        assert tree.path_tokens(nodes[-1]) == [1, 2, 3]
        assert tree.max_depth() == 3

    def test_from_sequences_merges_prefixes(self):
        tree = TokenTree.from_sequences([[1, 2, 3], [1, 2, 4], [1, 5]])
        # shared prefix [1,2] stored once: nodes = 1,2,3,4,5
        assert len(tree) == 5
        leaves = {tuple(tree.path_tokens(leaf)) for leaf in tree.leaves()}
        assert leaves == {(1, 2, 3), (1, 2, 4), (1, 5)}

    def test_roots_and_leaves(self):
        tree, (a, b, a1, a2, b1) = build_sample_tree()
        assert set(tree.roots()) == {a, b}
        assert set(tree.leaves()) == {a2, b1}

    def test_depth_and_ancestors(self):
        tree, (a, b, a1, a2, b1) = build_sample_tree()
        assert tree.depth_of(a2) == 3
        assert tree.ancestors(a2) == [a, a1, a2]
        assert tree.path_tokens(a2) == [10, 11, 12]

    def test_recycled_count(self):
        tree = TokenTree()
        tree.add(1, recycled=True)
        tree.add(2)
        assert tree.recycled_count() == 1

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_paths_roundtrip(self, sequences):
        """For any trie: links are consistent, nodes are in topological
        order (the verifier evaluates parents first), and every input
        sequence is a prefix of some leaf path."""
        tree = TokenTree.from_sequences(sequences)
        tree.validate()
        for i in range(len(tree)):
            assert all(j <= i for j in tree.ancestors(i))
        leaf_paths = {tuple(tree.path_tokens(leaf)) for leaf in tree.leaves()}
        for sequence in sequences:
            assert any(tuple(sequence) == path[: len(sequence)] for path in leaf_paths)
