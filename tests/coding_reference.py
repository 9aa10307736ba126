"""The tests' reference coded vector and Lagrange basis, on plain Python
integers.

``encode`` takes every coded vector as one field product over numpy
residues (``straggler._residues`` and ``straggler._field_combine``).  The
tests check each vector it returns against this separate, straightforward
sum, which shares no code with that product.  Likewise ``_basis_values``
evaluates all its polynomials as one array with one batched inversion;
``reference_basis`` takes each polynomial and each point on its own, with
its own inverse.  ``part_schedule`` works out all classes' quotas on
grouped arrays; ``reference_schedule`` takes one class and one holder at
a time.

It is imported by the tests and is not collected as a test module.
"""

from __future__ import annotations


def reference_vector(transmission, messages, p: int, part_len: int) -> tuple[int, ...]:
    """Sum of coef * (c mod p) over the encoding row, one element at a time."""
    out = [0] * part_len
    for (mask, j), coef in transmission.encoding_row.items():
        for i, c in enumerate(messages[mask][(j - 1) * part_len : j * part_len]):
            out[i] = (out[i] + coef * (int(c) % p)) % p
    return tuple(out)


def reference_basis(points, one_at, roots, p: int) -> list[list[int]]:
    """Per polynomial i, its values at ``points``: the product over
    ``roots[i]`` of (x - z), times the inverse of the product of
    (one_at[i] - z), mod p."""
    values = []
    for one, row in zip(one_at, roots):
        denominator = 1
        for z in row:
            denominator = denominator * (int(one) - int(z)) % p
        inverse = pow(denominator, p - 2, p)
        polynomial = []
        for x in points:
            numerator = 1
            for z in row:
                numerator = numerator * (int(x) - int(z)) % p
            polynomial.append(numerator * inverse % p)
        values.append(polynomial)
    return values


def reference_schedule(assignment, m: int, r: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """A valid plan's part schedule, one class and one holder at a time:
    largest-remainder quotas of the class's m*r slots, ties to the lower
    worker, the ascending tokens dealt round-robin over the m parts."""
    slots = m * r
    by_class: dict[int, dict[int, int]] = {}
    for (n, mask), unit in assignment.shares.units.items():
        by_class.setdefault(mask, {})[n] = unit
    schedule = {}
    for mask in sorted(by_class):
        units = by_class[mask]
        total = sum(units.values())
        floors, ranked = {}, []
        for n in sorted(units):
            floors[n], rem = divmod(slots * units[n], total)
            ranked.append((-rem, n))
        for _, n in sorted(ranked)[: slots - sum(floors.values())]:
            floors[n] += 1
        tokens = [n for n in sorted(floors) for _ in range(floors[n])]
        for j in range(1, m + 1):
            schedule[(mask, j)] = tuple(tokens[j - 1 :: m])
    return schedule
