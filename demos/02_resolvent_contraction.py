#!/usr/bin/env python3
"""The proximal-point mapping and its contraction bound.

R(z) = (H + rho*M)^(-1)(z) is single-valued and Lipschitz with constant
1/(r + rho*m), where r collects the mixed-cocoercivity and
expansive/Lipschitz constants and m the coupling accretivity gap.  This
script inverts forward images, audits the bound against sampled quotients,
and sweeps rho to show how bound and observation move together.
"""

import numpy as np

from vincl import (
    NonSurjectiveError,
    ResolventConfig,
    SamplePlan,
    audit_lipschitz,
    example_3_3,
    example_4_7,
    forward,
    resolve,
)


def main():
    named = example_4_7()
    inst = named.instance

    # Round trip: push a point through the composite, pull it back.
    x = np.array([1.0, -2.0])
    z = forward(inst, x, rho=0.35)
    back = resolve(inst, ResolventConfig(rho=0.35), z)
    print(f"forward({x.tolist()}) = {np.round(z, 6).tolist()}")
    print(f"resolve(forward(x))   = {back.tolist()}   (round trip exact)")

    # Audit: the worst contraction quotient over 500+ seeded pairs versus
    # the theoretical bound.
    rep = audit_lipschitz(inst, ResolventConfig(rho=0.35), SamplePlan(seed=1))
    print(f"\naudit at rho=0.35 over {rep.n_pairs} pairs:")
    print(f"  r = {rep.r}, m = {rep.m}")
    print(f"  bound 1/(r+rho*m) = {rep.bound:.8f}")
    print(f"  worst observed    = {rep.worst_ratio:.8f}")
    print(f"  passed: {rep.passed}")

    # Sweep rho.  The observed quotient is the exact operator norm of the
    # inverse composite; the bound tracks it from above at every rho.
    print("\nrho sweep (bound vs observed):")
    print(f"  {'rho':>6s} {'bound':>12s} {'observed':>12s} {'slack':>10s}")
    for rho in (0.1, 0.35, 1.0, 2.0, 5.0):
        rep = audit_lipschitz(inst, ResolventConfig(rho=rho),
                              SamplePlan(seed=2, n_pairs=128))
        slack = rep.bound - rep.worst_ratio
        print(f"  {rho:6.2f} {rep.bound:12.8f} {rep.worst_ratio:12.8f} "
              f"{slack:10.2e}")

    # Non-surjectivity: the degenerate instance's composite at rho = 1
    # maps everything to one point, so the resolvent refuses.
    print("\ndegenerate composite:")
    bad = example_3_3().instance
    try:
        resolve(bad, ResolventConfig(rho=1.0), np.zeros(8))
    except NonSurjectiveError as exc:
        print(f"  NonSurjectiveError: {exc}")
        print(f"  defect: image norm = {exc.defect['image_norm']}")

    # The damped fixed-point fallback reproduces the exact solve when the
    # operators are only available as black boxes: wrapping A..D in
    # lambdas hides the affine composite, so the resolvent iterates.
    opaque = inst.with_(**{s: (lambda m: (lambda v: m(v)))(getattr(inst, s))
                           for s in ("A", "B", "C", "D")})
    z = np.array([0.4, 0.9])
    xd = resolve(opaque, ResolventConfig(rho=0.35, inner_tol=1e-13), z)
    xe = resolve(inst, ResolventConfig(rho=0.35), z)
    print(f"\ndamped vs exact solver at z={z.tolist()}: "
          f"difference {np.linalg.norm(xd - xe):.2e}")


if __name__ == "__main__":
    main()
