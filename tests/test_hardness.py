import pytest

from treefit.embedding import verify
from treefit.errors import InvalidPartitionError, InvalidThreePartitionError
from treefit.hardness import (
    ThreePartitionInstance,
    forward_certificate,
    generate_hardness_instance,
)
from treefit.outcome import Contains
from treefit.pipeline import brute_force_contains
from treefit.seeds import rng_from


def random_yes_instance(rng, n_triples: int, target: int) -> tuple[ThreePartitionInstance, list]:
    """Sizes built triple-by-triple so a solution exists by construction."""
    sizes: list[int] = []
    while True:
        sizes.clear()
        ok = True
        for _ in range(n_triples):
            lo = target // 4 + 1
            hi = (target - 1) // 2
            a = rng.randint(lo, hi)
            b = rng.randint(lo, hi)
            c = target - a - b
            if not (lo <= c <= hi):
                ok = False
                break
            sizes.extend([a, b, c])
        if ok:
            break
    order = list(range(3 * n_triples))
    rng.shuffle(order)
    shuffled = [sizes[i] for i in order]
    triples = []
    for h in range(n_triples):
        triples.append(
            sorted(order.index(3 * h + j) for j in range(3))
        )
    return ThreePartitionInstance(tuple(shuffled), target), triples


class TestInstanceValidation:
    def test_valid(self):
        ThreePartitionInstance((3, 3, 3), 9).validate()

    def test_bad_sum(self):
        with pytest.raises(InvalidThreePartitionError):
            ThreePartitionInstance((3, 3, 4), 9).validate()

    def test_bounds(self):
        with pytest.raises(InvalidThreePartitionError):
            ThreePartitionInstance((1, 3, 5), 9).validate()
        ThreePartitionInstance((1, 3, 5), 9).validate(strict_bounds=False)

    def test_wrong_count(self):
        with pytest.raises(InvalidThreePartitionError):
            ThreePartitionInstance((3, 3), 6).validate()


class TestGenerator:
    def test_reference_instance_arithmetic(self):
        inst = ThreePartitionInstance((3, 3, 3), 9)
        out = generate_hardness_instance(inst, 1.0)
        assert out.delta == 31
        assert out.max_degree == 33
        assert out.tree.n == 43
        assert out.graph.n == 5803
        assert out.graph.min_degree() == 31
        assert out.graph.max_degree() == 33

    def test_degree_spectrum(self):
        inst = ThreePartitionInstance((3, 3, 3), 9)
        out = generate_hardness_instance(inst, 1.0)
        g = out.graph
        for slots in out.clique_slots:
            for y in slots:
                assert g.degree(y) == out.delta + 1
        for clique in out.cliques:
            for w in clique[3:]:
                assert g.degree(w) == out.delta
        assert g.degree(out.hub) == out.max_degree
        for z in out.z_block:
            assert out.max_degree - 1 <= g.degree(z) <= out.max_degree

    def test_guest_size_bound(self):
        rng = rng_from(101)
        for trial in range(6):
            inst, _ = random_yes_instance(rng, 1, rng.choice([9, 11, 13]))
            eps = rng.choice([0.5, 1.0, 2.0])
            out = generate_hardness_instance(inst, eps)
            assert out.tree.n <= (1 + eps) * out.delta

    def test_punched_sets_disjoint(self):
        inst = ThreePartitionInstance((3, 3, 3, 3, 4, 4), 10)
        out = generate_hardness_instance(inst, 1.0)
        seen = set()
        for hole in out.punched:
            assert not (set(hole) & seen)
            seen |= set(hole)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidThreePartitionError):
            generate_hardness_instance(ThreePartitionInstance((1, 3, 5), 9), 1.0)
        # a valid instance whose sum no float holds: rejected before it is converted
        x = 10**310
        with pytest.raises(InvalidThreePartitionError, match="sizes too large"):
            generate_hardness_instance(ThreePartitionInstance((x, x, x), 3 * x), 1.0)


class TestForwardCertificate:
    def test_unique_triple(self):
        inst = ThreePartitionInstance((3, 3, 3), 9)
        out = generate_hardness_instance(inst, 1.0)
        emb = forward_certificate(out, [[0, 1, 2]])
        assert verify(emb, out.graph, out.tree, require_full=True)
        assert len(emb.mapping) == 43

    def test_wrong_sums_rejected(self):
        inst = ThreePartitionInstance((3, 3, 3, 3, 4, 4), 10)
        out = generate_hardness_instance(inst, 1.0)
        with pytest.raises(InvalidPartitionError):
            forward_certificate(out, [[0, 1, 2], [3, 4, 5]])

    def test_permuted_triples_still_verify(self):
        rng = rng_from(102)
        inst, triples = random_yes_instance(rng, 2, 9)
        out = generate_hardness_instance(inst, 1.0)
        emb = forward_certificate(out, triples)
        assert verify(emb, out.graph, out.tree, require_full=True)
        emb2 = forward_certificate(out, list(reversed(triples)))
        assert verify(emb2, out.graph, out.tree, require_full=True)

    def test_random_yes_instances(self):
        rng = rng_from(103)
        for trial in range(8):
            n_triples = rng.choice([1, 1, 2])
            target = 9 if n_triples == 2 else rng.choice([9, 10, 11, 13])
            inst, triples = random_yes_instance(rng, n_triples, target)
            out = generate_hardness_instance(inst, rng.choice([0.75, 1.0, 1.5]))
            emb = forward_certificate(out, triples)
            assert verify(emb, out.graph, out.tree, require_full=True)


class TestMicroScaleOracle:
    def test_generator_plumbing_against_oracle(self):
        # artificially tiny instance (bounds relaxed) keeps the whole host
        # within oracle reach; both directions checked
        inst = ThreePartitionInstance((1, 1, 1), 3)
        out = generate_hardness_instance(inst, 3.0, strict_bounds=False)
        assert out.graph.n <= 700
        result = brute_force_contains(out.graph, out.tree, node_cap=4_000_000)
        assert isinstance(result, Contains)
        emb = forward_certificate(out, [[0, 1, 2]])
        assert verify(emb, out.graph, out.tree, require_full=True)
