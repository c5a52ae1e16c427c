"""Command-line interface and JSON file formats.

Instance files are JSON objects {"arity", "dimension", "generators",
"target"}; a data vector is a list of {"set": [atom...], "value":
[int-or-decimal-string...]}.  Atoms may be strings or nonnegative
integers and are interned to internal integer ids; values beyond 53 bits
must be decimal strings, and emitted values are always decimal strings so
the format is lossless.

An instance is read and checked in one pass over its entries: each atom is
interned as it is met (a name already in the table is one dict lookup),
each key is sorted once and handed to `DataVector` in canonical form, and
the location of an entry or a value (such as `target[12].value[0]`) is
built only for the message of the error that names it.

Every command takes one path through `main`: the parser built at import,
one load of the instance file (for all but `gen`), handed to the command as
(args, inst, table), and one error boundary that maps each exception class
once: `FormatError` (raised where the input is read or checked) exits 2, a
`core.CapExceeded` is INCONCLUSIVE and anything else an internal error.
Each document has one writer: `emit_instance` (`gen` prints through it,
entries sorted by atom id), `emit_witness`, whose `emit_renaming` also
writes `nsolve`'s guess, and `_search_report`, which reports the found and
absent witnesses of the `witness` and `oracle` searches.

Exit codes: 0 solvable/verified, 1 not solvable/not verified, 2 usage or
input error (also an unreadable, non-UTF-8 or too deeply nested file and a
negative option value), 3 inconclusive (a resource cap truncated the
search), 4 internal error (any other failure inside the library, such as a
construction or a computed answer failing its own consistency check),
reported as one line that names the innermost frame it was raised in.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback
from typing import Any

from .core import Atom, CapExceeded, DataVector, Instance, ShapeError, dv_combine
from .nsolve import COEFF_CAP, n_solvable
from .oracle import OracleConfig, brute_force
from .witness import (
    Witness,
    WitnessTerm,
    extract_witness_general,
    verify_witness,
)
from .zsolve import local_check, z_solvable

_MAX_SAFE = 2**53 - 1


class FormatError(ValueError):
    """A user-facing input problem (reported without a stack trace)."""


class AtomTable:
    """Interning of external atom names (strings or nonnegative integers)
    to internal integer ids, in order of first appearance."""

    def __init__(self) -> None:
        self.ids: dict[Any, int] = {}
        self.names: list[Any] = []

    @staticmethod
    def canonical(raw: Any) -> Any:
        if isinstance(raw, bool):
            raise FormatError("atoms must be strings or nonnegative integers")
        if isinstance(raw, int):
            if raw < 0:
                raise FormatError("integer atoms must be nonnegative")
            return raw
        if isinstance(raw, str):
            # renaming keys are JSON strings even for numeric atoms, written
            # as str(n); any other digit string ("007", "٣", or one longer
            # than int's digit limit, which `_load` refuses as a JSON
            # integer) is a name
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if raw.isascii() and raw.isdecimal() and not 0 < limit < len(raw):
                n = _parse_int(raw, "atom")
                return n if str(n) == raw else raw
            return raw
        raise FormatError("atoms must be strings or nonnegative integers")

    def intern(self, raw: Any) -> Atom:
        # a name already in the table is found with one lookup; a bool or a
        # float hashes equal to an int and must reach `canonical`'s checks
        if type(raw) is int or type(raw) is str:
            found = self.ids.get(raw)
            if found is not None:
                return found
        name = self.canonical(raw)
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def name_of(self, atom: Atom) -> Any:
        if 0 <= atom < len(self.names):
            return self.names[atom]
        name = f"_f{atom}"  # fresh atom introduced internally
        while name in self.ids:  # never an input atom's name
            name = "_" + name
        return name


def _parse_int(raw: Any, where: str) -> int:
    if isinstance(raw, bool):
        raise FormatError(f"{where}: expected an integer")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            raise FormatError(f"{where}: bad decimal string {raw!r}") from None
    if isinstance(raw, float):
        raise FormatError(
            f"{where}: integers beyond 53 bits must be decimal strings"
        )
    raise FormatError(f"{where}: expected an integer")


def parse_data_vector(
    raw: Any, arity: int, dim: int, table: AtomTable, where: str
) -> DataVector:
    if not isinstance(raw, list):
        raise FormatError(f"{where}: expected a list of entries")
    entries: dict = {}
    intern = table.intern
    for i, ent in enumerate(raw):
        if (
            not isinstance(ent, dict)
            or len(ent) != 2
            or "set" not in ent
            or "value" not in ent
        ):
            raise FormatError(f'{where}[{i}]: expected {{"set": …, "value": …}}')
        atoms = ent["set"]
        vals = ent["value"]
        if not isinstance(atoms, list) or len(atoms) != arity:
            raise FormatError(f"{where}[{i}].set: expected {arity} atoms")
        if not isinstance(vals, list) or len(vals) != dim:
            raise FormatError(f"{where}[{i}].value: expected {dim} integers")
        key = tuple(sorted(map(intern, atoms)))
        if len(set(key)) != arity:
            raise FormatError(f"{where}[{i}].set: atoms must be distinct")
        if key in entries:
            raise FormatError(f"{where}[{i}].set: duplicate set within one vector")
        # `_parse_int`'s rules, with a plain int or string read in place
        value = []
        for j, v in enumerate(vals):
            if type(v) is str:
                try:
                    v = int(v)
                except ValueError:
                    raise FormatError(
                        f"{where}[{i}].value[{j}]: bad decimal string {v!r}"
                    ) from None
            elif type(v) is not int:
                v = _parse_int(v, f"{where}[{i}].value[{j}]")
            value.append(v)
        entries[key] = tuple(value)
    return DataVector(arity, dim, entries)


def parse_instance(raw: Any, table: AtomTable) -> Instance:
    if not isinstance(raw, dict):
        raise FormatError("instance: expected a JSON object")
    for fld in ("arity", "dimension", "generators", "target"):
        if fld not in raw:
            raise FormatError(f"instance: missing field {fld!r}")
    arity = _parse_int(raw["arity"], "arity")
    dim = _parse_int(raw["dimension"], "dimension")
    if arity < 1 or dim < 1:
        raise FormatError("arity and dimension must be positive")
    if not isinstance(raw["generators"], list):
        raise FormatError("generators: expected a list")
    gens = tuple(
        parse_data_vector(g, arity, dim, table, f"generators[{i}]")
        for i, g in enumerate(raw["generators"])
    )
    target = parse_data_vector(raw["target"], arity, dim, table, "target")
    return Instance(arity, dim, gens, target)


def emit_data_vector(v: DataVector, table: AtomTable) -> list:
    return [
        {
            "set": [table.name_of(a) for a in key],
            "value": [str(x) for x in val],
        }
        for key, val in sorted(v.entries.items())
    ]


def emit_instance(inst: Instance, table: AtomTable) -> dict:
    return {
        "arity": inst.arity,
        "dimension": inst.dim,
        "generators": [emit_data_vector(g, table) for g in inst.generators],
        "target": emit_data_vector(inst.target, table),
    }


def parse_witness(raw: Any, table: AtomTable) -> Witness:
    if not isinstance(raw, dict) or not isinstance(raw.get("terms"), list):
        raise FormatError('witness: expected {"terms": […]}')
    terms = []
    for i, ent in enumerate(raw["terms"]):
        spot = f"terms[{i}]"
        if not isinstance(ent, dict) or not {
            "coeff",
            "generator",
            "renaming",
        } <= set(ent):
            raise FormatError(
                f"{spot}: expected coeff, generator and renaming fields"
            )
        coeff = _parse_int(ent["coeff"], f"{spot}.coeff")
        gi = _parse_int(ent["generator"], f"{spot}.generator")
        ren_raw = ent["renaming"]
        if not isinstance(ren_raw, dict):
            raise FormatError(f"{spot}.renaming: expected an object")
        ren = tuple(
            sorted(
                (table.intern(a), table.intern(b)) for a, b in ren_raw.items()
            )
        )
        if len({a for a, _ in ren}) != len(ren):
            raise FormatError(f"{spot}.renaming: duplicate source atom")
        terms.append(WitnessTerm(coeff, gi, ren))
    return Witness(tuple(terms))


def emit_renaming(ren, table: AtomTable) -> dict:
    """A renaming's (source, image) pairs as one JSON object."""
    return {str(table.name_of(a)): table.name_of(b) for a, b in ren}


def emit_witness(w: Witness, table: AtomTable) -> dict:
    return {
        "terms": [
            {
                "coeff": t.coeff if abs(t.coeff) <= _MAX_SAFE else str(t.coeff),
                "generator": t.generator,
                "renaming": emit_renaming(t.renaming, table),
            }
            for t in w.terms
        ]
    }


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}") from None
    except ValueError as exc:  # not UTF-8, or an integer beyond int's digit limit
        raise FormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _dump_json(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _report(args, line: str, payload: dict) -> None:
    print(line)
    if args.json:
        _dump_json(payload)


def _search_report(args, table, w, found: str, absent: str) -> int:
    """Report a witness search: no witness is the `absent` line (exit 1),
    and a witness is the `found` line and the witness (exit 0)."""
    if w is None:
        _report(args, absent, {"command": args.command, "witness": None})
        return 1
    print(found)
    _dump_json(emit_witness(w, table))
    return 0


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, the instance and its atom table


def cmd_zsolve(args, inst: Instance, table: AtomTable) -> int:
    if args.json:
        # the extractor checks the local criterion first: None means it
        # failed, and CapExceeded comes only after it passed
        try:
            w = extract_witness_general(inst)
            ok = w is not None
        except CapExceeded:
            w, ok = None, True
    else:
        ok = z_solvable(inst)
    payload: dict = {"command": "zsolve", "solvable": ok}
    if ok and args.json:
        payload["witness"] = None if w is None else emit_witness(w, table)
    _report(args, "Z-SOLVABLE" if ok else "NOT-Z-SOLVABLE", payload)
    return 0 if ok else 1


def cmd_nsolve(args, inst: Instance, table: AtomTable) -> int:
    dec = n_solvable(inst, coeff_cap=args.cap)
    payload = {
        "command": "nsolve",
        "status": dec.status,
        "coeff_bound": str(dec.bounds.coeff_bound),
        "support_size": str(dec.bounds.support_size),
    }
    if dec.status == "INCONCLUSIVE":
        payload["reason"] = dec.reason
    if dec.status == "SOLVABLE":
        payload["nonreversible_part"] = [
            {"generator": gi, "renaming": emit_renaming(ren, table)}
            for gi, ren in dec.guess
        ]
    line = {
        "SOLVABLE": "N-SOLVABLE",
        "UNSOLVABLE": "NOT-N-SOLVABLE",
        "INCONCLUSIVE": "INCONCLUSIVE",
    }[dec.status]
    _report(args, line, payload)
    return {"SOLVABLE": 0, "UNSOLVABLE": 1, "INCONCLUSIVE": 3}[dec.status]


def cmd_check_local(args, inst: Instance, table: AtomTable) -> int:
    report = local_check(inst)
    payload = {
        "command": "check-local",
        "pass": report.decision,
        "failures": [
            {
                "subset": [table.name_of(a) for a in f.subset],
                "target_weight": [str(x) for x in f.target_weight],
            }
            for f in report.failures
        ],
    }
    line = "LOCAL-CHECK-PASS" if report.decision else "LOCAL-CHECK-FAIL"
    if not report.decision and args.explain:
        worst = report.failures[0]
        names = ", ".join(str(table.name_of(a)) for a in worst.subset)
        line += f" at subset {{{names}}}"
    _report(args, line, payload)
    return 0 if report.decision else 1


def cmd_witness(args, inst: Instance, table: AtomTable) -> int:
    return _search_report(args, table, extract_witness_general(inst),
                          "WITNESS-FOUND", "NO-WITNESS")


def cmd_verify(args, inst: Instance, table: AtomTable) -> int:
    w = parse_witness(_load(args.witness_path), table)
    try:
        ok = verify_witness(inst, w, args.mode)
    except (IndexError, ShapeError) as exc:
        raise FormatError(str(exc)) from None
    _report(
        args,
        "VERIFIED" if ok else "NOT-VERIFIED",
        {"command": "verify", "verified": ok, "mode": args.mode},
    )
    return 0 if ok else 1


def cmd_oracle(args, inst: Instance, table: AtomTable) -> int:
    cfg = OracleConfig(args.coeff_bound, args.fresh, args.mode)
    return _search_report(args, table, brute_force(inst, cfg),
                          "ORACLE-FOUND", "ORACLE-ABSENT")


def cmd_gen(args) -> int:
    if args.atoms < args.arity:
        raise FormatError("need at least as many atoms as the arity")
    rng, lim = random.Random(args.seed), args.weight_range
    table = AtomTable()
    atoms = [table.intern(f"a{i}") for i in range(args.atoms)]

    def random_vector() -> DataVector:
        entries: dict = {}
        for _ in range(rng.randint(1, max(1, args.atoms - args.arity + 1))):
            key = tuple(sorted(rng.sample(atoms, args.arity)))
            if key not in entries:
                entries[key] = [rng.randint(-lim, lim) for _ in range(args.dim)]
        return DataVector(args.arity, args.dim, entries)  # drops zero values

    gens = []
    while len(gens) < args.gens:
        g = random_vector()
        if g.entries:
            gens.append(g)
    # target: a small combination of renamed generators
    copies = []
    for _ in range(rng.randint(1, 3)):
        g = gens[rng.randrange(len(gens))]
        sup = sorted(g.support())
        image = rng.sample(atoms, len(sup))
        copies.append((rng.choice([-2, -1, 1, 2]), g, dict(zip(sup, image))))
    target = dv_combine(args.arity, args.dim, copies)
    inst = Instance(args.arity, args.dim, tuple(gens), target)
    _dump_json(emit_instance(inst, table))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="datalin",
        description="Solvability of linear equations over unordered-data vectors",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def with_common(sp):
        sp.add_argument("path", help="instance JSON file")
        sp.add_argument("--json", action="store_true", help="machine report")
        return sp

    with_common(sub.add_parser("zsolve")).set_defaults(func=cmd_zsolve)
    np = with_common(sub.add_parser("nsolve"))
    np.add_argument("--cap", type=int, default=COEFF_CAP)
    np.set_defaults(func=cmd_nsolve)
    cp = with_common(sub.add_parser("check-local"))
    cp.add_argument("--explain", action="store_true")
    cp.set_defaults(func=cmd_check_local)
    with_common(sub.add_parser("witness")).set_defaults(func=cmd_witness)
    vp = with_common(sub.add_parser("verify"))
    vp.add_argument("witness_path", help="witness JSON file")
    vp.add_argument("--mode", choices=["Z", "N"], default="Z")
    vp.set_defaults(func=cmd_verify)
    op = with_common(sub.add_parser("oracle"))
    op.add_argument("--coeff-bound", type=int, default=2)
    op.add_argument("--fresh", type=int, default=2)
    op.add_argument("--mode", choices=["Z", "N"], default="Z")
    op.set_defaults(func=cmd_oracle)
    gp = sub.add_parser("gen")
    gp.add_argument("--arity", type=int, default=2)
    gp.add_argument("--dim", type=int, default=1)
    gp.add_argument("--atoms", type=int, default=5)
    gp.add_argument("--gens", type=int, default=2)
    gp.add_argument("--weight-range", type=int, default=2)
    gp.add_argument("--seed", type=int, default=0)
    return p


PARSER = build_parser()

# The least valid value of each option that counts or bounds something.
_LEAST = {"arity": 1, "dim": 1, "gens": 1, "weight_range": 1,
          "cap": 0, "coeff_bound": 0, "fresh": 0}


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for opt, least in _LEAST.items():
            if opt in args and getattr(args, opt) < least:
                raise FormatError(f"--{opt.replace('_', '-')} must be at least {least}")
        if args.command == "gen":
            return cmd_gen(args)
        table = AtomTable()
        return args.func(args, parse_instance(_load(args.path), table), table)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        payload = {"command": args.command, "status": "cap", "reason": exc.reason}
        _report(args, "INCONCLUSIVE", payload)
        return 3
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        message = str(exc) or type(exc).__name__
        print(f"internal error: {message} (at {where})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
