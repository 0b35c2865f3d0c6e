"""Self-test of the lifted-family generator.

    python3 perfbench/selftest.py

Lifting example_4_7 must keep every declared constant: the exact-path
certificates at dims 2, 50 and 400 reproduce its `expected` block, and the
black-box variant's sampled constants at dims 2 and 50 agree with the same
values.  The lifted solve converges to u = 0.  Exits 0 when all hold.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import vincl  # noqa: E402
from lifted import lift  # noqa: E402
from workloads import check_bundle, check_solve  # noqa: E402

SEED = 7


def main():
    failures = 0
    cases = [(dim, False) for dim in (2, 50, 400)]
    cases += [(dim, True) for dim in (2, 50)]
    for dim, blackbox in cases:
        lifted = lift(vincl.example_4_7(), dim, SEED, blackbox=blackbox)
        bundle = vincl.certify_instance(lifted.instance,
                                        vincl.SamplePlan(seed=SEED))
        problems = check_bundle(bundle, lifted.expected, sampled=blackbox)
        methods = {c.method for k, c in bundle.certificates.items()
                   if not k.startswith("d_lipschitz")}
        want = {"sampled"} if blackbox else {"exact_affine"}
        if methods != want:
            problems.append(f"certificate paths {methods}, expected {want}")
        if dim <= 50:
            exp = lifted.expected["solve"]
            trace = vincl.solve(lifted.instance, vincl.SolverConfig(
                z0=lifted.embed(exp["z0"]), rho=exp["rho"], tol=1e-12))
            problems += check_solve(lifted.embed(exp["target"]))(trace)
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{lifted.name:32s} {status}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
