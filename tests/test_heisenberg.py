import numpy as np
import pytest

from mpf_lab import (
    PauliSumOp,
    build_heisenberg_chain,
    fragment_decomposition_s2,
    to_dense,
)


def test_n2_term_structure():
    h_op, fields = build_heisenberg_chain(2, seed=0)
    couplings = [(c, p) for c, p in h_op if len(p.support) == 2]
    assert len(couplings) == 3
    assert all(c == 1.0 for c, _ in couplings)
    assert len(fields) == 2


def test_seed_determinism():
    _, h1 = build_heisenberg_chain(5, seed=99)
    _, h2 = build_heisenberg_chain(5, seed=99)
    assert np.array_equal(h1, h2)
    _, h3 = build_heisenberg_chain(5, seed=100)
    assert not np.array_equal(h1, h3)


def test_n4_counts_and_field_range():
    h_op, fields = build_heisenberg_chain(4, seed=7)
    couplings = [t for t in h_op if len(t[1].support) == 2]
    singles = [t for t in h_op if len(t[1].support) == 1]
    assert len(couplings) == 9
    assert len(singles) == 4
    assert np.all(np.abs(fields) <= 1.0)


def test_invalid_size():
    with pytest.raises(ValueError):
        build_heisenberg_chain(1, seed=0)


def test_decomposition_bond_assignment():
    _, fields = build_heisenberg_chain(4, seed=3)
    f1, f2, f3, f4, f5 = fragment_decomposition_s2(4, fields)
    assert f1 is f5 and f2 is f4
    # even bonds (0,1) and (2,3) at unit weight
    f3_bonds = {tuple(sorted(p.support)) for _, p in f3}
    assert f3_bonds == {(0, 1), (2, 3)}
    assert all(c == 1.0 for c, _ in f3)
    # odd bond (1,2) at half weight
    f1_bonds = {tuple(sorted(p.support)) for _, p in f1}
    assert f1_bonds == {(1, 2)}
    assert all(c == 0.5 for c, _ in f1)


def test_decomposition_sums_to_chain(chain6):
    total = chain6.fragments[0]
    for frag in chain6.fragments[1:]:
        total = total + frag
    assert (total - chain6.hamiltonian).is_empty
    # dense check as well
    dense_sum = sum(to_dense(f) for f in chain6.fragments)
    assert np.allclose(dense_sum, to_dense(chain6.hamiltonian), atol=1e-12)


def test_n2_decomposition_edges():
    _, fields = build_heisenberg_chain(2, seed=1)
    f1, f2, f3, _, _ = fragment_decomposition_s2(2, fields)
    assert f1.is_empty
    assert f3.num_terms == 3
    assert f2.num_terms <= 2


def test_field_vector_length_checked():
    with pytest.raises(ValueError):
        fragment_decomposition_s2(4, np.zeros(3))


def test_dense_roundtrip_n6(chain6):
    # Each coefficient in op.terms is the trace inner product of its word
    # with the dense Hamiltonian.
    dense = to_dense(chain6.hamiltonian)
    for coeff, ps in chain6.hamiltonian.terms:
        word = to_dense(PauliSumOp.from_terms(6, [(1.0, ps)]))
        assert abs(np.trace(word @ dense).real / dense.shape[0] - coeff) < 1e-12
