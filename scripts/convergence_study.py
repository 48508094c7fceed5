#!/usr/bin/env python3
"""Print the discretization-convergence tables: value gaps, root asymptotics,
and the L2 rate of the scaled weights, for H = 0.2 and both volatility ratios.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from delayed_hedge import ContinuousMarket, discretize, solve
from delayed_hedge.convergence import build_bn, l2_distance_to_kappa
from delayed_hedge.kernel import limit_value, spec_for_market


def main() -> None:
    for ratio in (0.5, 2.0):
        market = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(ratio))
        spec = spec_for_market(market)
        target = spec.level
        print(f"== ratio varsigma_hat^2/varsigma^2 = {ratio} ==")
        limit = limit_value(market)
        print(f"limit value U = {limit:+.10f}   n*a_n -> {target:+.10f}")
        for n in (100, 1000, 10000):
            sol = solve(discretize(market, n))
            gap = abs(sol.value - limit)
            an_err = abs(n * sol.a - target)
            print(f"  n={n:6d}  |value_n - U| = {gap:.3e}   |n a_n - limit| = {an_err:.3e}")
        for n in (100, 200, 400, 800):
            dist = l2_distance_to_kappa(build_bn(market, n), spec)
            print(f"  n={n:6d}  L2^2 distance = {dist:.6e}   n * L2^2 = {n * dist:.5f}")
        print()


if __name__ == "__main__":
    main()
