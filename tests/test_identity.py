"""The comparison of ``tests/identity.py`` on made-up records; no pipeline runs."""

import json

import pytest

from helpers import identity_script

identity = identity_script()

ENV = {"machine": {"arch": "x86_64", "cpu": "cpu", "simd": ["X86_V3"]}, "python": "3.11.7",
       "numpy": "2.4.6", "blas": {"name": "openblas", "version": "0.3"}, "scipy": "1.17.1",
       "thread_env": {"OPENBLAS_NUM_THREADS": "1"}, "allocator": {"keeps_freed_memory": True}}
DIGESTS = {"cli/seed0/gen-data/dataset": "a" * 64, "cli/seed0/refine/frames": "b" * 64,
           "workload/train/weights": "c" * 64}


def record(env=None, **digests):
    return {"environment": {**ENV, **(env or {})}, "digests": {**DIGESTS, **digests}}


def test_the_same_record_is_identical():
    verdict, lines = identity.compare(record(), record())
    assert (verdict, lines) == (identity.IDENTICAL, [])
    assert identity.EXIT[verdict] == 0


def test_a_changed_digest_fails_and_names_the_artefact():
    changed = record(**{"cli/seed0/refine/frames": "d" * 64})
    verdict, lines = identity.compare(record(), changed)
    assert verdict == identity.DIFFERS
    assert identity.EXIT[verdict] != 0
    assert len(lines) == 1 and lines[0].startswith("cli/seed0/refine/frames:")


@pytest.mark.parametrize("side", ["recorded", "current"])
def test_an_artefact_on_one_side_only_fails_and_is_named(side):
    full = record(**{"workload/scene/sdf": "e" * 64})
    recorded, current = (full, record()) if side == "recorded" else (record(), full)
    verdict, lines = identity.compare(recorded, current)
    assert verdict == identity.DIFFERS
    assert len(lines) == 1 and lines[0].startswith("workload/scene/sdf:")


@pytest.mark.parametrize("key, value", [
    ("numpy", "2.5.0"),
    ("machine", {**ENV["machine"], "simd": ["X86_V3", "AVX512_SKX"]}),
    ("thread_env", {"OPENBLAS_NUM_THREADS": "2"}),
    ("allocator", {"keeps_freed_memory": False}),
], ids=["numpy", "machine", "thread_env", "allocator"])
@pytest.mark.parametrize("same_digests", [True, False], ids=["same-digests", "other-digests"])
def test_another_environment_is_not_comparable(key, value, same_digests):
    current = record({key: value}) if same_digests else record(
        {key: value}, **{"cli/seed0/refine/frames": "d" * 64})
    verdict, lines = identity.compare(record(), current)
    assert verdict == identity.NOT_COMPARABLE
    assert identity.EXIT[verdict] not in (0, identity.EXIT[identity.DIFFERS])
    assert [line.split(":")[0] for line in lines] == [key]


def test_check_in_another_environment_runs_nothing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "IDENTITY.json"
    path.write_text(json.dumps(record({"numpy": "0.0"})))
    monkeypatch.setattr(identity, "RECORD", str(path))
    monkeypatch.setattr(identity, "_import_checkout", lambda: None)

    def run_nothing():
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(identity, "digests", run_nothing)
    assert identity.main(["--check"]) == identity.EXIT[identity.NOT_COMPARABLE]
    out = capsys.readouterr().out
    assert out.startswith("not comparable") and "numpy: recorded '0.0'" in out


def test_the_record_has_this_environment_s_fields():
    with open(identity.RECORD) as f:
        recorded = json.load(f)
    assert set(recorded) == {"environment", "digests"}
    assert set(recorded["environment"]) == set(identity.environment())
