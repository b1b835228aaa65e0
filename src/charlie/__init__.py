"""charlie: exact characteristic Lie algebras of Klein-Gordon equations u_xy = f(u).

Bell polynomials, truncated jet-space vector fields, bracket closures with
exact independence certificates, loop-algebra matrix oracles, and the
table-level isomorphism checks between the two.  The package root exports
nothing: import the modules (`from charlie import closure`); the `charlie`
command is `charlie.cli.main`."""

__version__ = "0.1.0"
