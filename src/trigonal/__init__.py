"""Exact verification of a braid-equivariant bijection between the projective
space of a 10-dimensional symplectic F_3-space and the conjugation classes of
degree-3 cover monodromy data, together with the supporting lattice algebra.

RANK is the rank of the lattice, the dimension of its reduction mod theta,
and the number of half-twist moves: the one statement of the rank.  The
package supports even ranks from 4 up; `rules.supported_rank` reads RANK
when `rules` is imported, and raises ValueError for any other.  At an odd
rank the alternating form mod theta lives on an odd dimension, so it is
degenerate (rank 8 at rank 9): there is no symplectic space to match the
classes with, and the classes fail their transversal certificate.  Rank 2,
a trigonal curve of genus rank/2 - 1 = 0, has no basis vector a_3, the
minus-6 witness that the report pins, so its `minus6_certificates` row
fails.  To run at another rank, set `trigonal.RANK` after `import trigonal`
and before any other module of the package is imported:

    import trigonal
    trigonal.RANK = 6
    from trigonal import cli

This module computes nothing from the rank, so it can be set here."""

__version__ = "0.1.0"

RANK = 10
