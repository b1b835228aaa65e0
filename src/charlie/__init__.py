"""charlie: exact characteristic Lie algebras of Klein-Gordon equations u_xy = f(u).

Bell polynomials, truncated jet-space vector fields, bracket closures with
exact independence certificates, loop-algebra matrix oracles, and the
table-level isomorphism checks between the two."""

__version__ = "0.1.0"

from .analysis import (
    EQUATIONS,
    build_exp_system,
    check_defining_equation,
    check_w2_integral,
    find_x_integrals,
    verify_isomorphism,
)
from .bell import complete_bell, d_power_exp, incomplete_bell
from .closure import (
    ClosureResult,
    commutant_growth_offset,
    generate,
    growth_function,
    jacobi_check,
    presented_m0,
    presented_m0_S,
    presented_m2,
    presented_n2_central,
    presented_witt_plus,
)
from .jetfield import (
    JetField,
    apply_field,
    apply_total_derivative,
    bigrading_of,
    bracket,
    is_zero_up_to,
    make_D,
    make_X0,
    make_Xf,
)
