"""Optimal semistatic hedging under delayed information in a Gaussian market.

The discrete solver gives the explicit root, weight recursion, strategy and
value; the Toeplitz module carries the banded-inverse and determinant
identities with dense oracles; the dual module verifies the martingale-measure
construction pathwise; the kernel and convergence modules cover the
continuous-time limit; mc simulates seeded paths against the closed-form
Gaussian expectation and holds the brute-force optimality oracle.
"""

from .errors import (
    DelayedHedgeError,
    DomainError,
    IntegrabilityError,
    LengthMismatch,
    NumericalError,
    OptimizerFailure,
    SingularMatrix,
    SizeError,
)
from .market import (
    ContinuousMarket,
    DiscreteMarket,
    delay_steps,
    discretize,
)
from .solver import (
    HedgeSolution,
    StrategyWeights,
    hedge_matrix,
    solve,
    solve_a,
    strategy,
    value,
    weights_b,
)
from .mc import brute_force_optimum
from .kernel import (
    KernelSpec,
    alpha,
    c_coefficients,
    kappa,
    kappa_integral_residual,
    kernel_spec,
    limit_static_coeff,
    limit_value,
)

__all__ = [
    "ContinuousMarket",
    "DiscreteMarket",
    "DelayedHedgeError",
    "DomainError",
    "HedgeSolution",
    "IntegrabilityError",
    "KernelSpec",
    "LengthMismatch",
    "NumericalError",
    "OptimizerFailure",
    "SingularMatrix",
    "SizeError",
    "StrategyWeights",
    "alpha",
    "brute_force_optimum",
    "c_coefficients",
    "delay_steps",
    "discretize",
    "hedge_matrix",
    "kappa",
    "kappa_integral_residual",
    "kernel_spec",
    "limit_static_coeff",
    "limit_value",
    "solve",
    "solve_a",
    "strategy",
    "value",
    "weights_b",
]

__version__ = "0.1.0"
