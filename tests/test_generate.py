import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripmwis.errors import InputError
from stripmwis.generate import generate_random_instance, generate_subdivided_claw
from stripmwis.patterns import find_induced_sttt

from helpers import same_graph


def test_subdivided_claw_shapes():
    claw = generate_subdivided_claw(1, 1, 1)
    assert claw.n == 4 and claw.edge_count() == 3
    assert claw.degree(claw.id_of(0)) == 3

    g = generate_subdivided_claw(2, 2, 2)
    assert g.n == 7
    degs = sorted(g.degree(i) for i in range(7))
    assert degs == [1, 1, 1, 2, 2, 2, 3]

    chair = generate_subdivided_claw(1, 1, 2)
    assert chair.n == 5
    assert all(w == 1 for w in chair.weights)

    with pytest.raises(InputError):
        generate_subdivided_claw(0, 1, 1)


def test_empty_instance():
    G = generate_random_instance(0, 3, 2, 1)
    assert G.n == 0


def test_degree_two_instances_are_paths_and_cycles():
    for seed in range(6):
        G = generate_random_instance(10, 2, 1, seed)
        assert G.max_degree() <= 2
        assert find_induced_sttt(G, 1) is None


def test_deterministic_per_seed():
    a = generate_random_instance(20, 4, 2, 7)
    b = generate_random_instance(20, 4, 2, 7)
    assert same_graph(a, b)
    c = generate_random_instance(20, 4, 2, 8)
    assert not same_graph(a, c) or a.edge_count() == c.edge_count()


@given(st.integers(0, 25), st.integers(1, 4), st.integers(1, 2), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_contract_always_holds(n, delta, t, seed):
    G = generate_random_instance(n, delta, t, seed)
    assert G.n == n
    assert G.max_degree() <= delta
    assert find_induced_sttt(G, t) is None
    assert all(1 <= w <= 100 for w in G.weights)
