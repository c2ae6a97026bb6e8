import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf_lab import (
    PauliString,
    PauliSumOp,
    commutator_minus_i,
    parse_op,
    pauli_from_sites,
    to_dense,
)
from mpf_lab.errors import ResourceLimitError
from mpf_lab.pauli import DENSE_QUBIT_CAP, _couplings, commutes, pauli_action, pauli_product

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def word_dense(ps: PauliString) -> np.ndarray:
    return to_dense(PauliSumOp.from_terms(ps.n, [(1.0, ps)]))


def kron_word(word: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in word:
        out = np.kron(out, SINGLE[ch])
    return out


words = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("XA")
    with pytest.raises(ValueError):
        PauliString("")
    assert PauliString("IXYZ").support == {1, 2, 3}


def test_pauli_from_sites_bounds():
    assert pauli_from_sites(3, {0: "X", 2: "Z"}).word == "XIZ"
    with pytest.raises(ValueError):
        pauli_from_sites(3, {3: "X"})


@given(words)
@settings(max_examples=40, deadline=None)
def test_dense_matches_kron(word):
    assert np.allclose(word_dense(PauliString(word)), kron_word(word))


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_product_phase_matches_dense(n, data):
    a = PauliString(data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
    b = PauliString(data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
    e, r = pauli_product(a, b)
    assert np.allclose((1j ** e) * word_dense(r), kron_word(a.word) @ kron_word(b.word))
    dense_comm = kron_word(a.word) @ kron_word(b.word) - kron_word(b.word) @ kron_word(a.word)
    assert commutes(a, b) == np.allclose(dense_comm, 0)


def test_complex_coefficients_rejected():
    with pytest.raises(ValueError):
        PauliSumOp.from_terms(2, [(1.0 + 0.5j, PauliString("XI"))])
    # a real value stored as complex dtype is fine
    op = PauliSumOp.from_terms(2, [(np.complex128(2.0), PauliString("XI"))])
    assert op.terms[0][0] == 2.0


def test_normalization_merges_and_drops():
    op = PauliSumOp.from_terms(
        2, [(1.0, PauliString("XI")), (2.0, PauliString("XI")), (-3.0, PauliString("XI")),
            (0.5, PauliString("ZZ"))]
    )
    assert op.num_terms == 1
    assert op.terms[0][1].word == "ZZ"


def test_arithmetic_and_dense_roundtrip(rng):
    n = 4
    words_list = ["XXII", "IZZI", "IIYY", "ZIIZ", "XIYI"]
    coeffs = rng.standard_normal(len(words_list))
    op = PauliSumOp.from_terms(n, [(c, PauliString(w)) for c, w in zip(coeffs, words_list)])
    dense = to_dense(op)
    assert np.allclose(dense, dense.conj().T)
    ref = sum(c * kron_word(w) for c, w in zip(coeffs, words_list))
    assert np.allclose(dense, ref, atol=1e-12)


def test_commutator_minus_i_matches_dense(rng):
    n = 3
    def rand_op():
        ws = ["XII", "IYI", "ZZI", "IXY", "ZIZ"]
        return PauliSumOp.from_terms(n, [(rng.standard_normal(), PauliString(w)) for w in ws])
    a, b = rand_op(), rand_op()
    lhs = to_dense(commutator_minus_i(a, b))
    da, db = to_dense(a), to_dense(b)
    assert np.allclose(lhs, -1j * (da @ db - db @ da), atol=1e-12)


@given(st.lists(st.tuples(st.floats(-2, 2, allow_nan=False), words.filter(lambda w: len(w) == 3)),
                min_size=0, max_size=6))
@settings(max_examples=30, deadline=None)
def test_serialization_roundtrip(terms):
    op = PauliSumOp.from_terms(3, [(c, PauliString(w)) for c, w in terms])
    text = "".join(f"{c!r} {w}\n" for c, w in terms)
    assert parse_op(text, n=3) == op


def test_parse_op_format():
    text = "# a comment\n1.0 XXII\n\n-0.5 IZII\n"
    op = parse_op(text)
    assert op.n == 4 and op.num_terms == 2
    with pytest.raises(ValueError):
        parse_op("1.0\n")
    with pytest.raises(ValueError):
        parse_op("")


def _to_dense_per_term(op: PauliSumOp) -> np.ndarray:
    """The per-term mask loop ``to_dense`` used before the shared helper."""
    dim = 1 << op.n
    mat = np.zeros((dim, dim), dtype=complex)
    for coeff, ps in op.terms:
        cols = np.arange(dim)
        rows = cols ^ ps.x_mask
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & ps.z_mask) & 1)
        mat[rows, cols] += coeff * (1j ** ps.y_count) * signs
    return mat


def test_pauli_action_matches_kron():
    idx = np.arange(8)
    for word in ("XYZ", "YYI", "IZX", "III", "ZZZ"):
        ps = PauliString(word)
        dense = np.zeros((8, 8), dtype=complex)
        dense[idx ^ ps.x_mask, idx] = pauli_action(ps, idx)
        assert np.array_equal(dense, kron_word(word))


def test_to_dense_unchanged_by_shared_helper():
    from mpf_lab import build_heisenberg_chain

    ops = [build_heisenberg_chain(n, seed=2024)[0] for n in range(4, 9)]
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        words = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(int(rng.integers(1, 10)))]
        words.append("Y" * n)
        ops.append(PauliSumOp.from_terms(
            n, [(float(rng.standard_normal()), PauliString(w)) for w in words]))
    assert any(ps.y_count for op in ops for _, ps in op.terms)
    for op in ops:
        assert np.array_equal(to_dense(op), _to_dense_per_term(op))


def test_dense_caps_raise_resource_limit():
    n = DENSE_QUBIT_CAP + 1
    word = PauliString("Z" * n)
    with pytest.raises(ResourceLimitError, match="capped"):
        to_dense(PauliSumOp.from_terms(n, [(1.0, word)]))


def test_couplings_group_by_x_mask_in_term_order():
    op = PauliSumOp.from_terms(3, [(0.5, PauliString(w)) for w in ("IZZ", "XXI", "YYI", "ZIZ")]
                               + [(-0.25, PauliString("XIY"))])
    idx = np.arange(8)
    groups = _couplings(op, idx)
    first_seen = list(dict.fromkeys(ps.x_mask for _, ps in op.terms))
    assert list(groups) == first_seen
    for x_mask, coupling in groups.items():
        members = [(c, ps) for c, ps in op.terms if ps.x_mask == x_mask]
        ref = np.zeros(idx.size, dtype=complex)
        for c, ps in members:
            rows = idx ^ ps.x_mask
            ref += c * kron_word(ps.word)[rows, idx]
        assert np.array_equal(coupling, ref)
    # XX + YY cancels exactly on |00> and |11> of the first two qubits.
    coupling = groups[PauliString("XXI").x_mask]
    assert coupling[[0b000, 0b001, 0b110, 0b111]].tolist() == [0, 0, 0, 0]
    assert np.all(coupling[[0b010, 0b011, 0b100, 0b101]] != 0)
