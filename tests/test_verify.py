"""Tests of the CNF encoding, the CDCL SAT solver, the sweeping session, and
equivalence checking, with differential fuzzing against the slow oracles in
``oracles.py``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import LinearScanSolver, per_output_check_equivalence, per_pair_choice_classes

from repro.aig.graph import Aig, aig_from_functions, lit_not, lit_var
from repro.aig.simulate import simulate
from repro.benchgen import arithmetic, epfl
from repro.opt.balance import balance
from repro.opt.dch import compute_choices
from repro.opt.rewrite import rewrite
from repro.verify.cec import check_equivalence, miter, prove_equivalent_vars
from repro.verify.cnf import Cnf, encode_miter_output, encode_or, tseitin_encode
from repro.verify.sat import SatSolver, solve_cnf
from repro.verify.session import SatSession


class TestCnf:
    def test_new_var_and_add_clause(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, -b])
        assert cnf.num_vars == 2
        assert cnf.clauses == [[1, -2]]

    def test_bad_clause_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([2])
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_dimacs_output(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        text = cnf.to_dimacs()
        assert text.startswith("p cnf 2 1")
        assert "1 2 0" in text

    def test_tseitin_and_semantics(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        cnf, var_map, outs = tseitin_encode(aig)
        # Force output true: only satisfiable with both inputs true.
        cnf.add_clause([outs[0]])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[var_map[aig.pis[0]]] and result.model[var_map[aig.pis[1]]]


class TestSatSolver:
    def test_trivial_sat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[a] is True

    def test_trivial_unsat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        assert solve_cnf(cnf).is_unsat

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole.
        cnf = Cnf()
        p = [cnf.new_var() for _ in range(2)]
        cnf.add_clause([p[0]])
        cnf.add_clause([p[1]])
        cnf.add_clause([-p[0], -p[1]])
        assert solve_cnf(cnf).is_unsat

    def test_assumptions(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        assert solve_cnf(cnf, assumptions=[-a]).is_sat
        cnf.add_clause([-b])
        assert solve_cnf(cnf, assumptions=[-a]).is_unsat

    def test_conflict_budget_returns_unknown_or_answer(self):
        cnf = _random_3sat(num_vars=30, num_clauses=128, seed=5)
        result = SatSolver(cnf).solve(conflict_budget=1)
        assert result.status in ("sat", "unsat", "unknown")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_3sat_models_are_valid(self, seed):
        cnf = _random_3sat(num_vars=12, num_clauses=40, seed=seed)
        result = solve_cnf(cnf)
        if result.is_sat:
            for clause in cnf.clauses:
                assert any(
                    (lit > 0) == result.model[abs(lit)] for lit in clause
                ), f"clause {clause} falsified"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_bruteforce(self, seed):
        cnf = _random_3sat(num_vars=8, num_clauses=30, seed=seed)
        expected = _bruteforce_sat(cnf)
        assert solve_cnf(cnf).is_sat == expected

    def test_encode_miter_output_xor_semantics(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        x = encode_miter_output(cnf, a, b)
        cnf.add_clause([x])
        cnf.add_clause([a])
        cnf.add_clause([b])
        assert solve_cnf(cnf).is_unsat  # a=b=1 -> xor=0, contradiction

    def test_encode_or_semantics(self):
        cnf = Cnf()
        lits = [cnf.new_var() for _ in range(3)]
        y = encode_or(cnf, lits)
        cnf.add_clause([y])
        for lit in lits:
            cnf.add_clause([-lit])
        assert solve_cnf(cnf).is_unsat


def _random_3sat(num_vars: int, num_clauses: int, seed: int) -> Cnf:
    import random

    rng = random.Random(seed)
    cnf = Cnf()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        clause = []
        for var in rng.sample(variables, 3):
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add_clause(clause)
    return cnf


def _bruteforce_sat(cnf: Cnf) -> bool:
    for assignment in range(1 << cnf.num_vars):
        ok = True
        for clause in cnf.clauses:
            if not any(((assignment >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


class TestCec:
    def test_identical_circuits_equivalent(self, small_sqrt):
        result = check_equivalence(small_sqrt, small_sqrt.clone())
        assert result.equivalent
        assert result.status == "equivalent"
        assert bool(result)

    def test_optimized_circuit_equivalent(self, small_sqrt):
        optimized = rewrite(balance(small_sqrt))
        assert check_equivalence(small_sqrt, optimized).equivalent

    def test_detects_single_gate_difference(self):
        a = aig_from_functions(3, lambda g, p: g.add_and(g.add_and(p[0], p[1]), p[2]))
        b = aig_from_functions(3, lambda g, p: g.add_and(g.add_or(p[0], p[1]), p[2]))
        result = check_equivalence(a, b)
        assert not result.equivalent
        assert result.status == "counterexample"

    def test_detects_output_inversion(self):
        a = aig_from_functions(2, lambda g, p: g.add_and(p[0], p[1]))
        b = aig_from_functions(2, lambda g, p: lit_not(g.add_and(p[0], p[1])))
        assert not check_equivalence(a, b).equivalent

    def test_mismatched_interfaces_not_equivalent(self):
        a = aig_from_functions(2, lambda g, p: g.add_and(p[0], p[1]))
        b = aig_from_functions(3, lambda g, p: g.add_and(p[0], p[1]))
        assert not check_equivalence(a, b).equivalent

    def test_counterexample_when_simulation_misses(self):
        # Functions differing in exactly one minterm: random simulation with
        # few words may miss it, the SAT stage must still find it.
        n = 6

        def almost_and(g, p):
            # AND of all inputs, except output forced low for one extra minterm.
            all_and = g.add_and_multi(p)
            skip = g.add_and_multi([lit_not(p[0])] + p[1:])
            return g.add_or(all_and, skip)

        a = aig_from_functions(n, lambda g, p: g.add_and_multi(p))
        b = aig_from_functions(n, almost_and)
        result = check_equivalence(a, b, sim_words=1)
        assert not result.equivalent
        if result.counterexample:
            assert set(result.counterexample) == {f"pi{i}" for i in range(n)}

    def test_miter_single_output(self, small_mem_ctrl):
        m = miter(small_mem_ctrl, small_mem_ctrl.clone())
        assert m.num_pos == 1
        assert m.num_pis == small_mem_ctrl.num_pis

    def test_single_miter_mode(self):
        # The single-output miter of two equivalent circuits is provably
        # constant 0 in a sweeping session.
        a = arithmetic.adder(4)
        m = miter(a, balance(a))
        assert SatSession(m).prove(m.pos[0][0], 0) == "equivalent"

    def test_prove_equivalent_vars(self):
        aig = Aig()
        x, y = aig.add_pi("x"), aig.add_pi("y")
        f = aig.add_and(x, y)
        g = aig.add_and(y, x)  # strashed to the same node
        h = aig.add_and(x, lit_not(y))
        aig.add_po(f)
        aig.add_po(h)
        from repro.aig.graph import lit_var

        assert prove_equivalent_vars(aig, lit_var(f), lit_var(g)) == "equivalent"
        assert prove_equivalent_vars(aig, lit_var(f), lit_var(h)) == "different"

    def test_session_counters_total_the_sweep(self, small_sqrt):
        result = check_equivalence(small_sqrt, rewrite(balance(small_sqrt)))
        assert result.status == "equivalent"
        assert result.sat_calls >= 2 * result.merged_pairs > 0
        assert result.conflicts >= 0

    def test_output_budget_exhaustion_is_unknown(self):
        # a*b against b*a shares no internal structure beyond the partial
        # products, so the output proofs need real search.
        a = arithmetic.multiplier(4)
        b = _rewire(a, {pi: swapped for pi, swapped in zip(a.pis, a.pis[4:] + a.pis[:4])})
        assert check_equivalence(a, b, conflict_budget=0).status == "unknown"
        assert check_equivalence(a, b).status == "equivalent"
        assert per_output_check_equivalence(a, b).status == "equivalent"


def _rewire(aig: Aig, pi_map=None, flip=None) -> Aig:
    """Copy ``aig``, driving PI ``v`` from PI ``pi_map[v]`` and complementing
    fanin ``flip[1]`` of the AND node ``flip[0]``."""
    out = Aig(name=f"{aig.name}_rewired")
    pis = {var: out.add_pi(aig.node(var).name) for var in aig.pis}
    old2new = {0: 0}
    for var in aig.pis:
        old2new[var] = pis[(pi_map or {}).get(var, var)]
    for node in aig.and_nodes():
        fanins = [old2new[lit_var(lit)] ^ (lit & 1) for lit in (node.fanin0, node.fanin1)]
        if flip is not None and flip[0] == node.var:
            fanins[flip[1]] = lit_not(fanins[flip[1]])
        old2new[node.var] = out.add_and(*fanins)
    for lit, name in aig.pos:
        out.add_po(old2new[lit_var(lit)] ^ (lit & 1), name)
    return out


def _random_aig(seed: int, num_pis: int, num_ands: int, num_pos: int) -> Aig:
    rng = random.Random(seed)
    aig = Aig(name=f"rand{seed}")
    lits = [aig.add_pi(f"x{i}") for i in range(num_pis)]
    for _ in range(num_ands):
        a, b = rng.sample(lits, 2)
        lits.append(aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for i in range(num_pos):
        aig.add_po(rng.choice(lits[num_pis:]) ^ rng.randint(0, 1), f"y{i}")
    return aig


aig_params = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
)


def _assert_same_verdict(a: Aig, b: Aig, sim_words: int) -> None:
    # With no simulation words, every verdict and counterexample comes from SAT.
    result = check_equivalence(a, b, sim_words=sim_words)
    oracle = per_output_check_equivalence(a, b, sim_words=sim_words)
    assert result.status == oracle.status
    if result.counterexample is not None:
        pattern = [int(result.counterexample[a.node(var).name]) for var in a.pis]
        out = result.failing_output
        assert simulate(a, pattern, width=1)[out] != simulate(b, pattern, width=1)[out]


class TestCecDifferential:
    """The sweeping CEC against the per-output oracle on random circuits."""

    @given(aig_params, st.integers(min_value=0, max_value=10**6), st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_random_pairs(self, params, other_seed, sim_words):
        a = _random_aig(*params)
        seed, num_pis, num_ands, num_pos = params
        _assert_same_verdict(a, rewrite(balance(a)), sim_words)
        _assert_same_verdict(a, _random_aig(other_seed, num_pis, num_ands, num_pos), sim_words)

    @given(aig_params, st.integers(min_value=0, max_value=10**6), st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_single_edge_complement_mutants(self, params, pick, sim_words):
        a = _random_aig(*params)
        b = rewrite(balance(a))
        nodes = [node.var for node in b.and_nodes()]
        if not nodes:
            return
        _assert_same_verdict(a, _rewire(b, flip=(nodes[pick % len(nodes)], pick % 2)), sim_words)


class TestChoicesDifferential:
    """Session-proven choice classes against the per-pair cone oracle."""

    @given(aig_params, st.sampled_from([3, 300]), st.sampled_from([5, 400]))
    @settings(max_examples=30, deadline=None)
    def test_random_aigs_give_identical_classes(self, params, max_cone, max_pairs):
        choice = compute_choices(_random_aig(*params), max_pairs=max_pairs, max_cone=max_cone)
        oracle = per_pair_choice_classes(choice.aig, max_pairs=max_pairs, max_cone=max_cone)
        assert choice.classes.members == oracle.members
        assert choice.classes.repr_of == oracle.repr_of

    def test_sqrt_classes_match_oracle(self, small_sqrt):
        choice = compute_choices(small_sqrt, max_pairs=100, conflict_budget=200)
        oracle = per_pair_choice_classes(choice.aig, max_pairs=100, conflict_budget=200)
        assert choice.classes.members == oracle.members
        assert choice.sat_calls > 0


class TestIncrementalSolver:
    def test_unit_learnt_under_assumptions_stays_at_root(self):
        cnf = Cnf()
        a, x, y = cnf.new_var(), cnf.new_var(), cnf.new_var()
        # x implies both y and not y, so x = 0 is learnt from the first
        # conflict, which happens below the assumption a.
        cnf.add_clause([-x, y])
        cnf.add_clause([-x, -y])
        solver = SatSolver(cnf)
        result = solver.solve(assumptions=[a])
        assert result.is_sat and result.conflicts == 1
        assert -x in solver.trail
        assert solver.level[x] == 0 and solver.assign[x] == -1
        assert solver.trail_lim == []

    def test_clauses_added_between_calls(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        solver = SatSolver(cnf)
        assert solver.solve(assumptions=[-a]).is_sat
        solver.add_clause([-b])
        assert solver.solve(assumptions=[-a]).is_unsat
        assert solver.solve().is_sat
        solver.add_clause([-a])
        assert solver.solve().is_unsat

    def test_session_merges_proven_pairs(self):
        aig = Aig()
        x, y = aig.add_pi("x"), aig.add_pi("y")
        f = aig.add_and(x, aig.add_or(x, y))  # absorption: f = x
        g = x
        h = aig.add_xor(x, y)
        session = SatSession(aig)
        assert session.prove(f, g) == "equivalent"
        assert session.prove(f, h) == "different"
        assert session.model is not None
        assert session.merged_pairs == 1 and session.sat_calls >= 3

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_heap_decisions_match_linear_scan(self, seed, budget):
        # The VSIDS heap must reproduce the linear scan's choices exactly:
        # same verdict, conflicts, decisions and model, under assumptions too.
        cnf = _random_3sat(num_vars=40, num_clauses=170, seed=seed)
        rng = random.Random(seed)
        assumptions = [rng.choice([1, -1]) * rng.randint(1, 40) for _ in range(2)]
        for args in ({}, {"assumptions": assumptions, "conflict_budget": budget}):
            fast, slow = SatSolver(cnf).solve(**args), LinearScanSolver(cnf).solve(**args)
            assert (fast.status, fast.conflicts, fast.decisions, fast.model) == (
                slow.status,
                slow.conflicts,
                slow.decisions,
                slow.model,
            )

    def test_heap_decisions_match_linear_scan_on_sweeps(self, small_sqrt):
        # Replays a whole sweeping session on both solvers, call by call.
        union = miter(small_sqrt, rewrite(balance(small_sqrt)))
        cnf, var_map, _ = tseitin_encode(union)
        fast, slow = SatSolver(cnf), LinearScanSolver(cnf)
        rng = random.Random(7)
        for _ in range(60):
            u, v = rng.sample(sorted(var_map.values()), 2)
            for assumptions in ([u, -v], [-u, v]):
                a = fast.solve(assumptions, conflict_budget=50)
                b = slow.solve(assumptions, conflict_budget=50)
                assert (a.status, a.conflicts, a.decisions, a.model) == (
                    b.status,
                    b.conflicts,
                    b.decisions,
                    b.model,
                )


@pytest.mark.slow
class TestLargeCircuit:
    def test_bench_multiplier_baseline_flow_is_equivalent(self):
        # The delay baseline flow on the bench multiplier: the sweep must
        # prove it, where per-output CEC ran out of budget ("unknown").
        from repro.pipeline import Pipeline

        script = "strash; strash; sop_balance; strash; sop_balance; strash; map(use_choices=true); cec"
        result = Pipeline.from_script(script).run_flow(epfl.build("multiplier", preset="bench"))
        assert result.equivalence.status == "equivalent"
