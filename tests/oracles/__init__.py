"""The test oracles and the seeded-input builders that several test modules share.

One module per layer of `tropica`, from the bottom up: `parsing` (exact
text input), `matrices`, `polyhedra`, `primes`, `varieties`,
`tropical_linear`, `sampling` and `cli`.  Each oracle answers one question
of its layer and is defined here once, in the form closest to the
definition that the tests can afford.

Layering rule: an oracle may call `tropica` only in layers below the one it
checks.  So the `Fraction` Fourier-Motzkin elimination of `polyhedra`
calls nothing in `tropica.polyhedra`, the prime oracles of `primes` multiply
the stored `Fraction` rows and never read `primes._keys`, the draw
primitives of `sampling` are written out, and the cell oracles of
`varieties` solve through `tropica.polyhedra`, which is below them.  An
oracle takes the types and domains of its inputs from the library
(`Polynomial`, `Cell`, a `MonomialWindow` and its order, `CircuitSet`):
they state the question, not its answer.  The `Fraction` front end of
`polyhedra` (`make_polyhedron` and the functions on a `Polyhedron`) calls
the library's integer kernel: it states inputs and serves the `varieties`
oracles, and is no oracle of `polyhedra`.  Two kinds of oracle read their
input with their own layer's readers: the parsing oracles other than
`ref_read_terms` read text through `parse_polynomial` and check what is
built from it (the variable count of several texts, the signs of classical
text), and `ref_cmd_tideal_check` reads argv and JSON with the CLI's own
helpers and checks the decision taken on them.  The fold oracle
`ref_parse_polynomial` reads its terms with `ref_read_terms`, the former
term reader.

No test module imports another test module; what two of them share lives
here.
"""
