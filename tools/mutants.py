"""Check that the tests catch each recorded mutation of the library.

A mutant is (file, old text, new text, test node ids).  The tool copies
src/, tests/, pyproject.toml and README.md to a temporary directory.  For
each mutant it replaces the old text, which must occur exactly once, by
the new text and runs only the named tests there; the mutant is killed
when one of them fails.  Before any mutant, the named tests must pass on
the unmutated copy.  Stdlib only:

    python tools/mutants.py

Each pytest run is stopped after TIMEOUT seconds: a mutant whose tests run
that long (a loop the mutation made endless, say) gets the verdict
"timed out", which is a fault like a survivor.  Exits 1 when a mutant
survives or times out, its old text does not occur exactly once, or pytest
cannot run its tests.  A change to mutated code updates the list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per pytest run
JAC, HALF = "src/jachalf/jacobian.py", "src/jachalf/halving.py"
ERR, FIELD = "src/jachalf/errors.py", "src/jachalf/field.py"
RAT, POLY, CLI = "src/jachalf/rationality.py", "src/jachalf/poly.py", "src/jachalf/cli.py"
T_JAC, T_HALF = "tests/test_jacobian.py::", "tests/test_halving.py::"
T_FIELD, T_RAT = "tests/test_field.py::", "tests/test_rationality.py::"
T_POLY = "tests/test_poly.py::"
FALLBACK_2 = T_JAC + "TestScalarMul::test_closed_form_steps_take_every_fallback[2-F13]"
BY_VALUE = T_JAC + "test_cantor_law_compares_by_value"

MUTANTS = [
    # _genus2: a step with r = 0 or s1 = 0 must go to Cantor
    (JAC, "if r and s1:\n                s0 = (a - u10 * b)",
     "if s1:\n                s0 = (a - u10 * b)", [FALLBACK_2]),
    (JAC, "if r and s1:\n                s0 = (a - u0 * b)",
     "if r:\n                s0 = (a - u0 * b)", [FALLBACK_2]),
    (JAC, "- f4 * il2 ", "", [T_JAC + "TestScalarMul::test_genus2_steps_at_large_prime"]),
    # _chord_tangent: the chord rule's x3 = lambda^2 - f2 - x1 - x2
    (JAC, "lam * lam - f2 - x1 - x2", "lam * lam - x1 - x2",
     [T_JAC + "TestScalarMul::test_closed_forms_match_binary_ladder[1-F13]"]),
    # _cantor_double: the first reduction step subtracts k^2
    (JAC, "divide(psub(F, W, times(twoV, k)), U)[0], times(k, k))",
     "divide(psub(F, W, times(twoV, k)), U)[0], pneg(F, times(k, k)))",
     [T_JAC + "TestDoubling::test_double_is_add_to_itself[3-F13]"]),
    # _reduce and _negate return tuples, which the scan compares by value
    (JAC, "return tuple(pmonic(F, U3)), tuple(V3)", "return pmonic(F, U3), V3", [BY_VALUE]),
    (JAC, "return U, tuple(pneg(F, V))", "return U, tuple(V)", [BY_VALUE]),
    (JAC, "return _negate(F, D)", "return D",
     [T_JAC + "TestScalarMul::test_closed_forms_match_binary_ladder[2-F13]"]),
    # torsion_scan: nP = 0 as ceil(n/2) P = -floor(n/2) P, and its root check
    (JAC, "== negate(mult[n // 2])", "== mult[n // 2]", [T_JAC + "TestTorsionScan::test_g3_clean"]),
    (JAC, "if T.mul(s, s) != fx:", "if False:",
     [T_JAC + "TestTorsionScan::test_wrong_root_is_refused"]),
    # halving._half_failure: the shape, v_D(a) = -b and f - v_D^2 = (x - a) U^2
    (HALF, " or U[-1] != F._one", "",
     [T_HALF + "TestRecoverTuple::test_unreduced_pair_is_not_a_half"]),
    (HALF, " or len(V) > g", "", [T_HALF + "TestRecoverTuple::test_unreduced_pair_is_not_a_half"]),
    (HALF, "if peval(F, v_d, a) != F.neg(b):", "if False:",
     [T_HALF + "TestRecoverTuple::test_negated_half_fails_only_the_sign_check"]),
    (HALF, "if psub(F, F.polymul(v_d, v_d), f) != _times_y(F, F.polymul(U, U), a):", "if False:",
     [T_HALF + "TestMumfordFromTuple::test_self_check_rejects_wrong_product",
      T_HALF + "TestRecoverTuple::test_non_half_with_matching_sign_fails_the_identity"]),
    # join refuses operands of two fields
    (FIELD, "if B is not C and not B.same_field(C):", "if False:",
     [T_FIELD + "TestCtxNew::test_ctx_mismatch_between_fields"]),
    # _trim is the one trailing-zero cut, and lowest() the one base-form rule
    (FIELD, "    while n and cs[n - 1] == z:\n        n -= 1\n", "",
     ["tests/test_poly.py::TestBasics::test_trailing_zeros_trimmed",
      T_FIELD + "TestCtxNew::test_trailing_zeros_of_the_modulus_are_trimmed"]),
    (FIELD, "return FieldElement(*self.tower.lowest((c0, c1)))",
     "return FieldElement(self.tower, (c0, c1))",
     [T_FIELD + "TestEncoding::test_quad_form_with_zero_u_decodes_to_base"]),
    # the F_p product kernel reduces mod p, and _quartic keeps the t term of ns
    (FIELD, "return [c % p for c in out]", "return out",
     ["tests/test_poly.py::TestBasics::test_product_example"]),
    (FIELD, "s2 = a01 * b01 + n1 * q1", "s2 = a01 * b01",
     [T_FIELD + "TestQuarticProduct::test_random_pairs_with_t_term"]),
    # Ben-Or refuses a modulus with a factor, and Tonelli-Shanks a non-square
    (FIELD, "if len(a) != 1:", "if False:", [T_FIELD + "TestCtxNew::test_rejects_reducible_modulus"]),
    (FIELD, "            if i == e:\n                return None\n", "",
     [T_FIELD + "TestSqrt::test_nonsquare_promotes_to_tower"]),
    # a Frobenius orbit holds every conjugate, and the two criteria must agree
    (RAT, "            orbit.append(index[beta])\n", "",
     [T_RAT + "TestRationalFactors::test_g2_fixture_factors"]),
    (RAT, "if (by_s is None) != (by_coeffs is None):", "if False:",
     [T_RAT + "TestClassIsRational::test_disagreeing_s_and_pair_is_an_internal_error"]),
    # _equal: values of two fields are unequal; Poly hashes by lowest payloads
    (FIELD, "except CtxMismatch:\n        return False", "except CtxMismatch:\n        return True",
     [T_POLY + "TestBasics::test_equality_with_foreign_values"]),
    (POLY, "hash(tuple([F.lowest(c)[1] for c in pc]) if F.tower is F else pc)", "hash(pc)",
     [T_POLY + "TestHashing::test_longer_polynomials_hash_by_lowest_field"]),
    # % is the remainder of pdivmod, and a curve is its roots
    (POLY, "pdivmod(F, a, b)[1], from_payloads)", "pdivmod(F, a, b)[0], from_payloads)",
     [T_POLY + "TestBasics::test_reflected_operators"]),
    (JAC, "return self.roots == other.roots", "return True",
     [T_JAC + "TestPoint::test_points_on_two_curves_differ"]),
    # psub negates the tail of a longer subtrahend; pxgcd makes its gcd monic
    (POLY, "    else:\n        out += map(F.neg, b[len(a):])\n", "",
     [T_POLY + "TestXgcd::test_bezout", T_POLY + "TestKernels::test_xgcd"]),
    (POLY, "return _scale(F, r0, inv), _scale(F, s0, inv), _scale(F, t0, inv)", "return r0, s0, t0",
     [T_POLY + "TestXgcd::test_bezout", T_POLY + "TestXgcd::test_gcd_of_shared_factor"]),
    # a bad divisor file is named in the message, and infinity is refused
    (CLI, 'raise type(exc)(f"divisor file {path}: {exc}") from exc', "raise",
     ["tests/test_cli.py::TestGroup::test_invalid_divisor_names_the_file_and_the_pair"]),
    (RAT, 'raise InfinityInput("the point at infinity has no affine coordinates")', "pass",
     [T_RAT + "TestAllHalvesRational::test_rejects_infinity"]),
    # a leaf error takes its exit code from its category
    (ERR, "class NotOnCurve(InvalidOperand):", "class NotOnCurve(InputError):",
     ["tests/test_cli_fuzz.py::test_each_error_class_keeps_its_exit_code",
      "tests/test_cli.py::TestHalve::test_off_curve_is_exit_3"]),
]


def _pytest(copy, tests):
    """(pytest's exit code, its stdout) on the named tests in copy; the code
    is None when the run is stopped after TIMEOUT seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s"
    return run.returncode, run.stdout


def main():
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # the pytest root, the exit-code table
            shutil.copy(ROOT / name, copy)
        tests = sorted({t for *_, ts in MUTANTS for t in ts})
        code, out = _pytest(copy, tests)
        if code != 0:
            print(f"the named tests do not pass unmutated:\n{out[-2000:]}")
            return 1
        for i, (path, old, new, tests) in enumerate(MUTANTS):
            target = copy / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                verdict = f"old text occurs {text.count(old)} times"
            else:
                target.write_text(text.replace(old, new), encoding="utf-8")
                code = _pytest(copy, tests)[0]
                target.write_text(text, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed", None: "timed out"}.get(
                    code, f"pytest exit {code}")
            faults += verdict != "killed"
            print(f"{i:2d} {verdict:>10}  {path}: {old.splitlines()[0].strip()!r}")
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
