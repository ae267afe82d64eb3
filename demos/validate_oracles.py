"""Run the oracle identity suite and show what each check pins down.

Every check compares simulation against an identity that is exact, not an
approximation: the exponential MGF, the binomial jammer-count law, the exact
per-eavesdropper intercept probability, and two-leg combining under
independent leg sampling. `relaysec validate` runs the same suite from the
command line with exit code 4 on any failure.

Run: python demos/validate_oracles.py       (under a second: 0.4-0.7 s on a 2-vCPU Xeon VM)
"""

from relaysec import run_oracle_suite


def main():
    results = run_oracle_suite(trials=30_000, mgf_samples=300_000, seed=12345)
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    print()
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
    else:
        print(f"all {len(results)} oracle checks passed; the estimator agrees with")
        print("every exact identity the closed-form analysis is built from.")


if __name__ == "__main__":
    main()
