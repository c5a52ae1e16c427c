"""Tests of the benchmark itself: the correctness gate, the tracer's
install/restore, self-time arithmetic and seeded instance generation.

    python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, WrongAnswer, check_witness  # noqa: E402


def _bindings(lib):
    owners = [lib] + [getattr(lib, m) for m in tracing.MODULES]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


# ---------------------------------------------------------------------------
# correctness gate


def test_wrong_cli_answer_aborts_run_naming_workload_seed_instance(
    monkeypatch, capsys
):
    real_import = run.import_library

    def sabotaged():
        lib = real_import()
        # every instance now "fails" its local check, solvable ones included
        monkeypatch.setattr(
            lib.cli, "local_check", lambda inst: lib.zsolve.LocalReport(False, ())
        )
        return lib

    monkeypatch.setattr(run, "import_library", sabotaged)
    code = run.main(["--workload", "zdecide", "--seed", "3", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "workload zdecide, seed 3, instance zdecide-000" in err
    assert '"correct"' not in out


def test_planted_failing_subset_must_be_reported(tmp_path, monkeypatch):
    lib = run.import_library()
    wl = WORKLOADS["zdecide"]
    case = next(c for c in wl.cases(5) if not c.expect["z"])
    path = tmp_path / "no.json"
    path.write_bytes(gen.instance_bytes(case))
    real = lib.cli.local_check

    def drop_planted(inst):
        report = real(inst)
        keep = tuple(f for f in report.failures if len(f.subset) < case.arity)
        return lib.zsolve.LocalReport(False, keep)

    monkeypatch.setattr(lib.cli, "local_check", drop_planted)
    with pytest.raises(WrongAnswer, match="planted failing subset"):
        run.run_pass(wl, lib, [case], [str(path)], [0])


def test_tampered_witness_fails_own_summation():
    lib = run.import_library()
    wl = WORKLOADS["witness"]
    case = wl.cases(2)[10]
    w = wl.run(lib, wl.prepare(lib, case, None))
    check_witness(case, w)
    first = w.terms[0]
    bad = type(w)((type(first)(first.coeff + 1, first.generator,
                                first.renaming),) + w.terms[1:])
    with pytest.raises(WrongAnswer, match="does not sum"):
        check_witness(case, bad)


def test_wrong_n_status_fails_gate(monkeypatch):
    lib = run.import_library()
    wl = WORKLOADS["ndecide"]
    case = next(c for c in wl.cases(1) if c.expect["n"] == "UNSOLVABLE")
    inst = wl.prepare(lib, case, None)
    real = lib.nsolve.n_solvable

    def flipped(inst, **kwargs):
        dec = real(inst, **kwargs)
        return type(dec)("SOLVABLE", dec.bounds, (), None)

    monkeypatch.setattr(lib.nsolve, "n_solvable", flipped)
    with pytest.raises(WrongAnswer, match=case.name):
        run.run_pass(wl, lib, [case], [inst], [0])


def test_wrong_z_answer_fails_crosscheck_gate(monkeypatch):
    lib = run.import_library()
    wl = WORKLOADS["crosscheck"]
    case = next(c for c in wl.cases(1)
                if c.expect["kind"] == "Z" and not c.expect["yes"])
    prepared = wl.prepare(lib, case, None)
    monkeypatch.setattr(lib.zsolve, "z_solvable", lambda inst: True)
    with pytest.raises(WrongAnswer, match=case.name):
        run.run_pass(wl, lib, [case], [prepared], [0])


def test_oracle_witness_for_unsolvable_case_fails_crosscheck_gate(monkeypatch):
    lib = run.import_library()
    wl = WORKLOADS["crosscheck"]
    case = next(c for c in wl.cases(1)
                if c.expect["kind"] == "N" and not c.expect["yes"])
    prepared = wl.prepare(lib, case, None)
    fake = lib.witness.make_witness([(1, 0, {})])
    monkeypatch.setattr(lib.oracle, "brute_force", lambda inst, cfg: fake)
    with pytest.raises(WrongAnswer, match=f"{case.name}: oracle"):
        run.run_pass(wl, lib, [case], [prepared], [0])


# ---------------------------------------------------------------------------
# tracer


def test_wrappers_removed_after_traced_run(tmp_path, monkeypatch):
    real_import = run.import_library
    imported = []

    def recording():
        lib = real_import()
        imported.append((lib, _bindings(lib)))
        return lib

    monkeypatch.setattr(run, "import_library", recording)
    wl = WORKLOADS["ndecide"]
    cases = wl.cases(1)[:12]
    counts, metrics, _ = run.traced_run(
        wl, cases, [None] * len(cases), 0, random.Random(0),
        tmp_path / "s.json.gz",
    )
    assert counts.samples == 2 * len(cases)
    assert metrics["nsolve.n_solvable.calls"] == len(cases)
    # one import for the untraced pass and one for the traced pass
    assert len(imported) == 2
    for lib, before in imported:
        after = _bindings(lib)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert not any(hasattr(v, "__traced__") for v in after.values())


def test_every_pass_runs_on_a_fresh_import(monkeypatch):
    real_import = run.import_library
    imported = []

    def recording():
        imported.append(real_import())
        return imported[-1]

    monkeypatch.setattr(run, "import_library", recording)
    wl = WORKLOADS["ndecide"]
    cases = wl.cases(1)[:12]
    _, _, extra = run.measured_run(
        wl, cases, [None] * len(cases), 0.3, random.Random(0)
    )
    passes = extra["passes"][0]
    assert passes >= 2 and len(imported) == passes
    assert len({id(lib.nsolve) for lib in imported}) == passes


def test_floor_latency_is_cost_at_the_fastest_host_speed():
    # 100 instances costing 1..100 ms; every instance ran once at full
    # speed and three times at 1.5x, so the floor factor is 1/1.5 and each
    # latency is the instance's full-speed cost
    costs = [1e-3 * (i + 1) for i in range(100)]
    times = [[1.5 * c, c, 1.5 * c, 1.5 * c] for c in costs]
    latency, floor = run.floor_latencies(times)
    assert floor == pytest.approx(1 / 1.5)
    assert latency == pytest.approx(costs)


def test_tracer_wraps_every_binding_and_restores_after_error():
    lib = run.import_library()
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        assert lib.zsolve.weight is lib.core.weight is lib.calculus.weight
        assert hasattr(lib.cli.local_check, "__traced__")
        tracer.enabled = True
        with pytest.raises(lib.core.ShapeError):
            lib.core.weight(
                lib.core.Hypergraph(frozenset({0, 1}), 1, 1, {(0,): (1,)}),
                (0, 1),
            )
    finally:
        tracer.restore()
    (span,) = tracer.take()
    assert span.name == "core.weight" and span.info == "ShapeError"
    assert not hasattr(lib.core.weight, "__traced__")


# ---------------------------------------------------------------------------
# self time


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, None),
        Span("a", 1.0, 4.0, 0, 0, None),
        Span("b", 5.0, 9.0, 0, 0, None),
        Span("c", 6.0, 8.0, 2, 0, None),
        Span("other", 20.0, 21.5, -1, 1, None),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, None),
        Span("a", 1.0, 4.0, 0, 0, None),
        Span("b", 3.0, 6.0, 0, 0, None),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_residual_checks_are_local_checks_under_n_solvable():
    spans = [
        Span("nsolve.n_solvable", 0.0, 10.0, -1, 0, "SOLVABLE"),
        Span("zsolve.z_solvable", 1.0, 2.0, 0, 0, None),
        Span("zsolve.local_check", 1.1, 1.9, 1, 0, True),
        Span("zsolve.local_check", 3.0, 4.0, 0, 0, False),
        Span("zsolve.local_check", 5.0, 6.0, 0, 0, True),
    ]
    m = tracing.layer_metrics(spans, 10.0)
    assert m["nsolve.residual_checks"] == 2
    assert m["nsolve.residual_hit_ratio"] == 0.5
    assert m["zsolve.local_check.calls"] == 3
    assert m["nsolve.n_solvable.self_s"] == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# seeded generation


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_writes_byte_identical_instance_files(workload, tmp_path):
    cases = WORKLOADS[workload].cases
    first = run.write_instances(cases(11), tmp_path / "a")
    second = run.write_instances(cases(11), tmp_path / "b")
    third = run.write_instances(cases(12), tmp_path / "c")
    assert len(first) >= gen.INSTANCES

    def read(paths):
        return [Path(p).read_bytes() for p in paths]

    assert read(first) == read(second)
    assert read(first) != read(third)
