"""Block-multilinear systems and the vanishing-probability domination."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rmtest import setmultilin as sml
from rmtest.errors import StructureError


def poly(q, n, terms):
    return sml.MultilinearPoly(q, n, {frozenset(k): v for k, v in terms.items()})


class TestSetMultilinearPart:
    def test_drops_low_monomials(self):
        part = sml.Partition(2, ((0,), (1,)))
        p = poly(2, 2, {(0, 1): 1, (0,): 1, (): 1})
        assert sml.set_multilinear_part(p, part) == poly(2, 2, {(0, 1): 1})

    def test_fixed_point(self):
        part = sml.Partition(2, ((0,), (1,)))
        p = poly(2, 2, {(0, 1): 1})
        assert sml.set_multilinear_part(p, part) == p

    def test_structural_output(self):
        rng = np.random.default_rng(3)
        part = sml.Partition(3, ((0, 1), (2, 3), (4, 5)))
        for _ in range(200):
            system = sml.random_system(part, 1, rng)
            p = system.polys[0]
            sm = sml.set_multilinear_part(p, part)
            for mon in sm.terms:
                assert len(mon) == 3
                blocks_hit = {part.block_of(v) for v in mon}
                assert blocks_hit == {0, 1, 2}

    def test_rejects_non_multilinear(self):
        part = sml.Partition(2, ((0, 1),))
        bad = poly(2, 2, {(0, 1): 1})  # two variables from one block
        with pytest.raises(StructureError):
            sml.set_multilinear_part(bad, part)


class TestVanishingProbability:
    def test_worked_example(self):
        part = sml.Partition(2, ((0,), (1,)))
        system = sml.PartitionedSystem(part, (poly(2, 2, {(0, 1): 1, (0,): 1, (): 1}),))
        p_full, p_sm = sml.system_vanishing_probability(system)
        assert p_full == Fraction(1, 4)
        assert p_sm == Fraction(3, 4)

    def test_homogeneous_system_is_its_own_part(self):
        part = sml.Partition(2, ((0,), (1,)))
        system = sml.PartitionedSystem(part, (poly(2, 2, {(0, 1): 1}),))
        p_full, p_sm = sml.system_vanishing_probability(system)
        assert p_full == p_sm

    def test_random_sweep_and_chain(self):
        rng = np.random.default_rng(1234)
        done = 0
        while done < 500:
            q = int(rng.choice([2, 3]))
            k = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 4)) for _ in range(k)]
            if sum(sizes) > 8:
                continue
            part = sml.Partition.from_sizes(q, sizes)
            system = sml.random_system(part, int(rng.integers(1, 4)), rng)
            # raises if p_full > p_sm
            p_full, p_sm = sml.system_vanishing_probability(system)
            chain = sml.chain_probabilities(system)
            assert chain[0] == p_full and chain[-1] == p_sm
            assert all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))
            done += 1

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            sml.Partition(2, ((0,), (0, 1)))

    def test_partition_from_sizes(self):
        assert sml.Partition.from_sizes(3, [2, 1, 3]).blocks == ((0, 1), (2,), (3, 4, 5))

    def test_system_validation(self):
        part = sml.Partition(2, ((0, 1),))
        with pytest.raises(StructureError):
            sml.PartitionedSystem(part, (poly(2, 2, {(0, 1): 1}),))


def brute_force_vanishing(polys, part):
    """Vanishing probability with Python ints at every assignment."""
    hits = total = 0
    for point in itertools.product(range(part.q), repeat=part.n_vars):
        total += 1
        hits += all(
            sum(c * math.prod(point[v] for v in mon) for mon, c in p.terms.items()) % part.q
            == 0
            for p in polys
        )
    return Fraction(hits, total)


class TestAgainstBruteForce:
    def test_all_three_probabilities(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 40:
            q = int(rng.choice([2, 3, 5, 7]))
            sizes = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 4)))]
            if sum(sizes) > 5 or q ** sum(sizes) > 3000:
                continue
            part = sml.Partition.from_sizes(q, sizes)
            system = sml.random_system(part, int(rng.integers(1, 4)), rng)
            parts = [sml.set_multilinear_part(p, part) for p in system.polys]
            chain = sml.homogenization_chain(system.polys, part)
            p_full = brute_force_vanishing(system.polys, part)
            assert sml.vanishing_probability(system.polys, part) == p_full
            assert sml.system_vanishing_probability(system) == (
                p_full, brute_force_vanishing(parts, part)
            )
            assert sml.chain_probabilities(system) == [
                brute_force_vanishing(step, part) for step in chain
            ]
            done += 1

    def test_each_call_enumerates_once(self, monkeypatch):
        calls = []
        real = sml.coefficient_blocks

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sml, "coefficient_blocks", counted)
        part = sml.Partition.from_sizes(2, [1, 2, 1])
        system = sml.random_system(part, 2, np.random.default_rng(8))
        sml.chain_probabilities(system)
        assert len(calls) == 1
        sml.system_vanishing_probability(system)
        assert len(calls) == 2
