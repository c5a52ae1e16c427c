"""The benchmark's workloads: one timed operation per instance, and the
correctness gate that checks its answer.

Each workload turns generated cases into library inputs (`prepare`, given
the case's instance file where `files` is true), runs the timed operation
through the public entry points (`run`), and checks the result (`check`),
which returns an `Outcome` or raises `WrongAnswer`.  The
library is reached through module attributes at call time, so a tracer's
wrappers are seen.  A failure (a resource cap, an INCONCLUSIVE answer, an
oracle guard trip) is counted, not raised; a wrong answer aborts the run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Optional

import gen


class WrongAnswer(Exception):
    """An answer contradicts what is known about the instance."""


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int = 0
    terms: Optional[int] = None  # witness terms, where a witness is returned


# Marker for an operation stopped by a resource cap or guard.
FAILED = "failed"


def to_instance(lib, case: gen.Case):
    core = lib.core
    dv = [core.DataVector(case.arity, case.dim, g) for g in case.generators]
    target = core.DataVector(case.arity, case.dim, case.target)
    return core.Instance(case.arity, case.dim, tuple(dv), target)


def witness_value(case: gen.Case, terms, nonneg: bool = False) -> dict:
    """The benchmark's own evaluation of a witness: the sum of the renamed
    generator copies, computed from the case, not from library objects."""
    total: dict = {}
    for term in terms:
        if not 0 <= term.generator < len(case.generators):
            raise WrongAnswer(f"witness names generator {term.generator}")
        if nonneg and term.coeff < 0:
            raise WrongAnswer("N witness has a negative coefficient")
        gen_vec = case.generators[term.generator]
        mapping = dict(term.renaming)
        images = [mapping.get(a, a) for a in gen.support(gen_vec)]
        if len(set(images)) != len(images):
            raise WrongAnswer(f"renaming {mapping} is not injective")
        gen.add_into(total, gen.rename(gen_vec, mapping), term.coeff)
    return total


def check_witness(case: gen.Case, w, nonneg: bool = False) -> None:
    if witness_value(case, w.terms, nonneg) != case.target:
        raise WrongAnswer("witness does not sum to the target")


# ---------------------------------------------------------------------------


class ZDecide:
    """`datalin check-local --json` in process, on instance files."""

    name = "zdecide"
    cases = staticmethod(gen.zdecide_cases)
    files = True

    def prepare(self, lib, case, path):
        return path

    def run(self, lib, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["check-local", "--json", path])
        return code, out.getvalue()

    def check(self, lib, case, path, result) -> Outcome:
        code, text = result
        expect = case.expect["z"]
        lines = text.splitlines()
        verdict = "LOCAL-CHECK-PASS" if expect else "LOCAL-CHECK-FAIL"
        if code != (0 if expect else 1) or lines[:1] != [verdict] or len(lines) != 2:
            raise WrongAnswer(f"exit code {code}, output {text!r}")
        report = json.loads(lines[1])
        if report.get("pass") is not expect:
            raise WrongAnswer(f"pass is {report.get('pass')}, expected {expect}")
        subsets = [sorted(f["subset"]) for f in report["failures"]]
        if expect and subsets:
            raise WrongAnswer("solvable instance reported failing subsets")
        if not expect and case.expect["failing"] not in subsets:
            raise WrongAnswer(
                f"planted failing subset {case.expect['failing']} not reported"
            )
        return Outcome(1)


class Witness:
    """extract_witness_general on Z-solvable instances."""

    name = "witness"
    cases = staticmethod(gen.witness_cases)
    files = False

    def prepare(self, lib, case, path):
        return to_instance(lib, case)

    def run(self, lib, inst):
        try:
            return lib.witness.extract_witness_general(inst)
        except lib.calculus.CapExceeded:
            return FAILED

    def check(self, lib, case, inst, w) -> Outcome:
        if w is FAILED:
            return Outcome(1, failed=1)
        if w is None:
            raise WrongAnswer("no witness for a Z-solvable instance")
        check_witness(case, w)
        return Outcome(1, terms=len(w.terms))


class NDecide:
    """n_solvable at a fixed guess cap on small nonnegative instances."""

    name = "ndecide"
    cases = staticmethod(gen.ndecide_cases)
    files = False

    def prepare(self, lib, case, path):
        return to_instance(lib, case)

    def run(self, lib, inst):
        return lib.nsolve.n_solvable(
            inst, coeff_cap=gen.N_COEFF_CAP, guess_cap=gen.N_GUESS_CAP
        )

    def check(self, lib, case, inst, dec) -> Outcome:
        expect = case.expect["n"]
        if dec.status == "INCONCLUSIVE" and expect == "SOLVABLE":
            return Outcome(1, failed=1)
        if dec.status != expect:
            raise WrongAnswer(f"status {dec.status}, expected {expect}")
        if dec.status == "SOLVABLE":
            check_guess(lib, case, inst, dec.guess)
        return Outcome(1)


def check_guess(lib, case, inst, guess) -> None:
    """The guessed nonreversible copies must be injective renamings of
    nonreversible generators, and what they leave of the target must be
    Z-solvable over the reversible generators."""
    part = lib.nsolve.reversible_partition(inst)
    terms = []
    for gi, renaming in guess:
        if gi not in part.nonreversible:
            raise WrongAnswer(f"guess uses reversible generator {gi}")
        terms.append(lib.witness.WitnessTerm(1, gi, renaming))
    residual = dict(case.target)
    gen.add_into(residual, witness_value(case, terms), -1)
    rev = tuple(case.generators[i] for i in part.reversible)
    sub = gen.Case(case.name, case.arity, case.dim, rev, residual)
    if not lib.zsolve.z_solvable(to_instance(lib, sub)):
        raise WrongAnswer("residual of the guess is not Z-solvable")


class CrossCheck:
    """Deciders against the brute-force oracle, as acceptance criteria 5
    (Z cases) and 6 (N cases) do, on planted instances small enough for the
    oracle to finish.  The oracle is checked only where its bounded search
    proves something: a witness it finds must sum to the target, and then
    the instance must be solvable; its "none found" is not a proof."""

    name = "crosscheck"
    cases = staticmethod(gen.crosscheck_cases)
    files = False

    def prepare(self, lib, case, path):
        return case.expect["kind"], to_instance(lib, case)

    def _oracle(self, lib, fn, *args):
        try:
            return fn(*args)
        except lib.oracle.OracleGuardError:
            return FAILED

    def run(self, lib, prepared):
        kind, inst = prepared
        oracle = lib.oracle
        if kind == "Z":
            solvable = lib.zsolve.z_solvable(inst)
            found = self._oracle(lib, oracle.brute_force, inst,
                                 oracle.OracleConfig(*gen.X_ORACLE["Z"], "Z",
                                                     max_nodes=50_000))
            k2 = lib.witness.extract_witness_k2(inst) if inst.arity == 2 else None
            return "Z", solvable, found, k2
        part = lib.nsolve.reversible_partition(inst)
        rev_cfg = oracle.OracleConfig(*gen.X_ORACLE["N"], "N", max_nodes=60_000)
        brute_rev = [
            self._oracle(lib, oracle.brute_reversible, inst, i, rev_cfg)
            for i in range(len(inst.generators))
        ]
        dec = lib.nsolve.n_solvable(
            inst, coeff_cap=gen.N_COEFF_CAP, guess_cap=gen.N_GUESS_CAP
        )
        found = self._oracle(lib, oracle.brute_force, inst,
                             oracle.OracleConfig(*gen.X_ORACLE["N"], "N",
                                                 max_nodes=120_000))
        return "N", part, brute_rev, dec, found

    def check(self, lib, case, prepared, result) -> Outcome:
        yes = case.expect["yes"]
        if result[0] == "Z":
            _, solvable, found, k2 = result
            if solvable != yes:
                raise WrongAnswer(f"z_solvable is {solvable}, expected {yes}")
            failed = int(found is FAILED)
            if found is not None and not failed:
                if not yes:
                    raise WrongAnswer("oracle found a witness, decider says no")
                check_witness(case, found)
            if case.arity == 2:
                if (k2 is not None) != yes:
                    raise WrongAnswer("extract_witness_k2 disagrees with z_solvable")
                if k2 is not None:
                    check_witness(case, k2)
            return Outcome(3 if case.arity == 2 else 2, failed=failed)
        _, part, brute_rev, dec, found = result
        failed = 0
        for i, br in enumerate(brute_rev):
            if br is FAILED:
                failed += 1
            elif br and i not in part.reversible:
                raise WrongAnswer(f"oracle shows generator {i} reversible, "
                                  "decider says not")
        for i in case.expect.get("reversible", ()):
            if i not in part.reversible or brute_rev[i] is not True:
                raise WrongAnswer(f"generator {i} has its negation listed, "
                                  "but is not found reversible")
        attempted = 3 + len(brute_rev)
        if dec.status == "INCONCLUSIVE" and yes:
            failed += 1
        elif dec.status != ("SOLVABLE" if yes else "UNSOLVABLE"):
            raise WrongAnswer(f"status {dec.status}, expected "
                              f"{'SOLVABLE' if yes else 'UNSOLVABLE'}")
        elif yes:
            check_guess(lib, case, prepared[1], dec.guess)
        if found is FAILED:
            failed += 1
        elif found is not None:
            if not yes:
                raise WrongAnswer("oracle found an N witness, decider says no")
            check_witness(case, found, nonneg=True)
        return Outcome(attempted, failed=failed)


WORKLOADS = {w.name: w for w in (ZDecide(), Witness(), NDecide(), CrossCheck())}
