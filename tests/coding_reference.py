"""The tests' reference coded vector: the encoding row's sum, one element
at a time on plain Python integers.

``encode`` takes every coded vector as one field product over numpy
residues (``straggler._residues`` and ``straggler._field_combine``).  The
tests check each vector it returns against this separate, straightforward
sum, which shares no code with that product.

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
