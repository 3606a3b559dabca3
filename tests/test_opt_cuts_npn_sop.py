"""Tests of the cut enumeration, NPN classification, SOP/ISOP and factoring."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import aig_from_functions, lit_var
from repro.aig.simulate import exhaustive_truth_tables
from repro.mapping.cut_mapping import _remap_cut
from repro.mapping.library import asap7_like_library
from repro.opt.cuts import Cut, cut_cone_volume, cut_truth_table, enumerate_cuts, merge_cuts
from repro.opt.npn import classify, is_npn_equivalent, negate_output, npn_canonical, truth_num_vars
from repro.opt.sop import Cube, factor, factored_literal_count, isop, isop_cover, sop_truth
from repro.opt.truth import cofactors, flip_var, permute, stretch, swap_vars, var_mask

import oracles
from cut_layer_digests import FIXTURE, all_digests


def _xor_aig():
    return aig_from_functions(2, lambda a, pis: a.add_xor(pis[0], pis[1]))


class TestCuts:
    def test_pi_has_trivial_cut(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4)
        pi = small_adder.pis[0]
        assert cuts[pi] == [Cut(leaves=(pi,), truth=0b10)]

    def test_cut_sizes_bounded(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4, cut_limit=6)
        for var, cut_list in cuts.items():
            for cut in cut_list:
                assert cut.size <= 4

    def test_cut_limit_respected(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4, cut_limit=3)
        for node in small_adder.and_nodes():
            # +1 for the trivial self-cut.
            assert len(cuts[node.var]) <= 4

    def test_cut_truths_match_local_simulation(self, small_sqrt):
        cuts = enumerate_cuts(small_sqrt, k=4, cut_limit=4)
        checked = 0
        for node in small_sqrt.and_nodes():
            for cut in cuts[node.var]:
                if cut.leaves == (node.var,):
                    continue
                assert cut.truth == cut_truth_table(small_sqrt, node.var, cut.leaves)
                checked += 1
            if checked > 50:
                break
        assert checked > 0

    def test_reject_oversized_k(self, small_adder):
        with pytest.raises(ValueError):
            enumerate_cuts(small_adder, k=9)

    def test_merge_cuts_respects_k(self):
        c0 = Cut(leaves=(1, 2, 3), truth=0)
        c1 = Cut(leaves=(4, 5, 6), truth=0)
        assert merge_cuts(c0, c1, False, False, k=4) is None

    def test_cone_volume_of_xor(self):
        aig = _xor_aig()
        root = lit_var(aig.pos[0][0])
        leaves = tuple(aig.pis)
        assert cut_cone_volume(aig, root, leaves) == 3  # XOR = 3 AND nodes

    def test_and_node_two_input_cut_truth(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        root = lit_var(aig.pos[0][0])
        cuts = enumerate_cuts(aig, k=2)
        non_trivial = [c for c in cuts[root] if c.leaves != (root,)]
        assert any(c.truth == 0b1000 for c in non_trivial)


class TestNpn:
    def test_truth_num_vars(self):
        assert truth_num_vars(0b1000) == 2
        assert truth_num_vars(0b10) == 1

    def test_negate_output_involution(self):
        t = 0b1010
        assert negate_output(negate_output(t, 2), 2) == t

    def test_negate_input_swaps_cofactors(self):
        t_and = 0b1000
        # negating input 0 of AND gives b & !a -> truth 0b0100
        assert flip_var(t_and, 0, 2) == 0b0100

    def test_permute_identity(self):
        t = 0b0110
        assert permute(t, (0, 1), 2) == t

    def test_and_variants_same_class(self):
        # a&b, a&!b, !a&b, !(a|b), a|b ... AND-family NPN class
        variants = [0b1000, 0b0100, 0b0010, 0b0001, 0b1110, 0b0111]
        classes = {npn_canonical(t, 2) for t in variants}
        assert len(classes) == 1

    def test_xor_not_equivalent_to_and(self):
        assert not is_npn_equivalent(0b0110, 0b1000, 2)

    def test_classify_groups(self):
        groups = classify([0b1000, 0b1110, 0b0110, 0b1001], 2)
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [2, 2]

    @given(st.integers(min_value=0, max_value=65535))
    @settings(max_examples=40, deadline=None)
    def test_canonical_is_idempotent_and_invariant(self, truth):
        canon = npn_canonical(truth, 4)
        assert npn_canonical(canon, 4) == canon
        assert npn_canonical(negate_output(truth, 4), 4) == canon
        assert npn_canonical(flip_var(truth, 2, 4), 4) == canon


class TestSop:
    def test_cube_literals(self):
        cube = Cube(mask=0b101, polarity=0b001)
        assert cube.literals() == [(0, True), (2, False)]
        assert cube.num_literals == 2

    def test_isop_covers_function_exactly(self):
        for truth in (0b0110, 0b1000, 0b1110, 0b0111, 0b1001, 0b0001):
            cubes = isop_cover(truth, 2)
            assert sop_truth(cubes, 2) == truth

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=80, deadline=None)
    def test_isop_exact_for_3var_functions(self, truth):
        cubes = isop_cover(truth, 3)
        assert sop_truth(cubes, 3) == truth

    @given(st.integers(min_value=0, max_value=65535))
    @settings(max_examples=60, deadline=None)
    def test_isop_with_dont_cares_within_bounds(self, truth):
        upper = truth | 0b1111  # add don't cares on the low minterms
        cubes = isop(truth, upper, 4)
        result = sop_truth(cubes, 4)
        assert result & ~upper == 0
        assert truth & ~result == 0

    def test_factor_preserves_function(self):
        for truth in (0b11101000, 0b01100110, 0b10000001, 0b11111110):
            cubes = isop_cover(truth, 3)
            node = factor(cubes)
            # Evaluate the factored form on every minterm.
            def eval_factor(n, minterm):
                if n.kind == "lit":
                    bit = (minterm >> n.var) & 1
                    return bool(bit) == n.positive
                if n.kind == "and":
                    return all(eval_factor(c, minterm) for c in n.children)
                return any(eval_factor(c, minterm) for c in n.children)

            for minterm in range(8):
                assert eval_factor(node, minterm) == bool((truth >> minterm) & 1)

    def test_factored_literal_count_constants(self):
        assert factored_literal_count(0, 3) == 0
        assert factored_literal_count(0xFF, 3) == 0

    def test_factoring_shares_common_literal(self):
        # a*b + a*c should factor to a*(b+c): 3 literals, not 4.
        cubes = [Cube(0b011, 0b011), Cube(0b101, 0b101)]
        assert factor(cubes).num_literals() == 3

    def test_isop_cover_result_is_a_fresh_list(self):
        cubes = isop_cover(0b0110, 2)
        expected = list(cubes)
        cubes.append(Cube(0, 0))
        cubes.pop(0)
        assert isop_cover(0b0110, 2) == expected

    @given(st.integers(min_value=1, max_value=2**16 - 2))
    @settings(max_examples=40, deadline=None)
    def test_factored_literal_count_matches_fresh_factoring(self, truth):
        fresh = factor(isop(truth, truth, 4)).num_literals()
        assert factored_literal_count(truth, 4) == fresh

    def test_factor_empty_cover_raises(self):
        with pytest.raises(ValueError):
            factor([])


@st.composite
def _tables(draw, max_vars=8):
    """(truth, n): an ``n``-variable table, sometimes with garbage high bits."""
    n = draw(st.integers(min_value=0, max_value=max_vars))
    truth = draw(st.integers(min_value=0, max_value=(1 << ((1 << n) + 3)) - 1))
    return truth, n


@st.composite
def _leaf_subsets(draw):
    """(truth, old_leaves, new_leaves) with sorted ``old_leaves`` within ``new_leaves``."""
    new_leaves = sorted(draw(st.sets(st.integers(min_value=1, max_value=60), max_size=8)))
    old_leaves = [leaf for leaf in new_leaves if draw(st.booleans())]
    truth = draw(st.integers(min_value=0, max_value=(1 << (1 << len(old_leaves))) - 1))
    return truth, old_leaves, new_leaves


class TestTruthKernel:
    """The bit-parallel kernel equals the per-minterm loops it replaced."""

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_var_mask(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert var_mask(i, n) == oracles.leaf_truth(i, n)
        assert var_mask(i, n) == oracles.var_halves(i, n)[1]

    @given(_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_swap_vars(self, table, data):
        truth, n = table
        if n == 0:
            return
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        perm = list(range(n))
        perm[a], perm[b] = perm[b], perm[a]
        assert swap_vars(truth, a, b, n) == oracles.permute_inputs(truth, tuple(perm), n)

    @given(_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permute(self, table, data):
        truth, n = table
        perm = tuple(data.draw(st.permutations(range(n))))
        assert permute(truth, perm, n) == oracles.permute_inputs(truth, perm, n)

    @given(_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_flip_var_and_cofactors(self, table, data):
        truth, n = table
        if n == 0:
            return
        var = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert flip_var(truth, var, n) == oracles.negate_input(truth, var, n)
        assert cofactors(truth, var, n) == oracles.cofactors(truth, var, n)

    @given(_leaf_subsets())
    @settings(max_examples=150, deadline=None)
    def test_stretch(self, case):
        truth, old_leaves, new_leaves = case
        assert stretch(truth, old_leaves, new_leaves) == oracles.expand_truth(truth, old_leaves, new_leaves)

    @given(_leaf_subsets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_remap_cut(self, case, data):
        truth, _, leaves = case
        truth &= (1 << (1 << len(leaves))) - 1
        cut = Cut(leaves=tuple(leaves), truth=truth)
        size = len(leaves)
        targets = data.draw(st.lists(st.integers(min_value=1, max_value=12), min_size=size, max_size=size))
        mapping = dict(zip(leaves, targets))
        assert _remap_cut(cut, mapping) == oracles.remap_cut(cut, mapping)

    def test_library_match_table(self):
        library = asap7_like_library()
        reference = oracles.MintermLibrary(name=library.name)
        for gate in library.gates:
            reference.add(gate)
        assert library._match_table == reference._match_table


class TestSynth:
    def test_build_truth_factored_matches_truth(self):
        from repro.aig.graph import Aig
        from repro.opt.synth import build_truth_factored

        for truth in (0b0110, 0b1000, 0b0111, 0b1001, 0b11100000, 0b10010110):
            num_vars = 2 if truth < 16 else 3
            aig = Aig()
            leaves = [aig.add_pi() for _ in range(num_vars)]
            lit = build_truth_factored(aig, truth, leaves)
            aig.add_po(lit)
            assert exhaustive_truth_tables(aig)[0] == truth

    def test_build_sop_balanced_depth_estimate(self):
        from repro.aig.graph import Aig
        from repro.opt.synth import build_truth_sop_balanced

        aig = Aig()
        leaves = [aig.add_pi() for _ in range(3)]
        arrivals = [5.0, 0.0, 0.0]
        arr, lit = build_truth_sop_balanced(aig, 0b10000000, leaves, arrivals)
        aig.add_po(lit)
        assert exhaustive_truth_tables(aig)[0] == 0b10000000
        # The late leaf should be merged last: depth estimate 5 + 2 at most.
        assert arr <= 7.0


class TestCutLayerDigests:
    def test_bench_outputs_match_recorded_digests(self):
        assert all_digests() == json.loads(FIXTURE.read_text())
