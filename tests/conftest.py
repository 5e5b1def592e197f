"""Shared test data.

REISNER_ROWS are the exponent vectors of the ten squarefree cubics cutting
out the 6-vertex triangulation of the projective plane; the ideal they
generate is the recurring worked example across the test suite.
"""

from math import comb

REISNER_ROWS = (
    (1, 1, 1, 0, 0, 0),
    (1, 1, 0, 1, 0, 0),
    (1, 0, 1, 0, 1, 0),
    (1, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 1),
    (0, 1, 1, 0, 0, 1),
    (0, 1, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 1),
    (0, 0, 1, 1, 1, 0),
    (0, 0, 1, 1, 0, 1),
)

RP2_FACETS = (
    (0, 1, 4),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 5),
    (0, 3, 4),
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (2, 4, 5),
    (3, 4, 5),
)


def random_facets(rng, n, target_faces, sizes=(4, 6)):
    """Facets of random size from rng until their closure has target_faces faces.

    Shaped like the benchmark's generated complexes: 14-16 vertices,
    facets of 4-6 vertices, about 300 faces.  A target beyond the faces
    such facets can close to (the subsets of at most max(sizes) of the n
    vertices, the empty face included) raises ValueError.
    """
    reachable = sum(comb(n, k) for k in range(max(sizes) + 1))
    if target_faces > reachable:
        raise ValueError(
            f"{n} vertices have only {reachable} faces of at most {max(sizes)} vertices, "
            f"fewer than {target_faces}"
        )
    faces = {0}
    facets = []
    while len(faces) < target_faces:
        facet = tuple(sorted(rng.sample(range(n), rng.randint(*sizes))))
        mask = sum(1 << v for v in facet)
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
        facets.append(facet)
    return facets


def facets_text(n, facets):
    return f"vertices {n}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
