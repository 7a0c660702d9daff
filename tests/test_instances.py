import json

import pytest

import supcenter as sc
from supcenter.errors import InstanceError
from supcenter.instances import (
    CenterInstance,
    RenormInstance,
    corpus_names,
    load_corpus,
    load_instance,
    parse_instance,
)


def center_payload(**overrides):
    data = {
        "schema": 1,
        "kind": "center",
        "name": "two-points",
        "dim": 3,
        "family": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "functionals": [{"support": [0, 1], "weights": [0.5, -0.5]}],
    }
    data.update(overrides)
    return data


class TestParse:
    def test_center_roundtrip(self):
        inst = parse_instance(center_payload())
        assert isinstance(inst, CenterInstance)
        assert inst.constraint == "ball" and inst.scale == 1.0
        assert sc.restricted_radius(inst.problem()) == pytest.approx(0.5, abs=1e-9)

    def test_renorm_roundtrip(self):
        inst = parse_instance({"schema": 1, "kind": "renorm", "name": "r3", "n": 3})
        assert isinstance(inst, RenormInstance)
        assert inst.gamma == pytest.approx(1.0 / 16.0)
        assert inst.theta == pytest.approx(1e-3)

    def test_missing_field_named(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance({"schema": 1, "kind": "center", "name": "x"})
        assert exc.value.field == "dim"

    def test_wrong_type_named(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(dim="three"))
        assert exc.value.field == "dim"

    def test_bad_schema_version(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(schema=99))
        assert exc.value.field == "schema"

    def test_unknown_kind(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(kind="mystery"))
        assert exc.value.field == "kind"

    def test_bad_constraint_mode(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(constraint="cone"))
        assert exc.value.field == "constraint"

    def test_bad_functional_reported(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(functionals=[{"support": [0], "weights": [1.0, 2.0]}]))
        assert exc.value.field == "functionals"

    def test_ragged_family_rejected(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(family=[[1.0, 0.0], [0.0]]))
        assert exc.value.field == "family"

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InstanceError) as exc:
            parse_instance(center_payload(constraint="scaled-ball", scale=0.0))
        assert exc.value.field == "scale"

    @pytest.mark.parametrize("key", ["gamma", "theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_renorm_parameter_rejected(self, key, value):
        with pytest.raises(InstanceError) as exc:
            parse_instance({"schema": 1, "kind": "renorm", "name": "r", "n": 3, key: value})
        assert exc.value.field == key

    def test_not_an_object(self):
        with pytest.raises(InstanceError):
            parse_instance([1, 2, 3])


def test_load_instance_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(center_payload()), encoding="utf-8")
    inst = load_instance(path)
    assert inst.name == "two-points"


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceError):
        load_instance(path)


class TestCorpus:
    def test_names_sorted_and_nonempty(self):
        names = corpus_names()
        assert len(names) >= 15
        assert names == sorted(names)

    def test_all_load(self):
        instances = load_corpus()
        assert len(instances) == len(corpus_names())
        assert all(inst.name for inst in instances)

    def test_kind_filter(self):
        centers = load_corpus(kind="center")
        renorms = load_corpus(kind="renorm")
        assert all(isinstance(i, CenterInstance) for i in centers)
        assert all(isinstance(i, RenormInstance) for i in renorms)
        assert len(centers) + len(renorms) == len(load_corpus())
        assert {r.n for r in renorms} == {3, 4, 5}

    def test_worked_instance_expectations(self):
        by_name = {i.name: i for i in load_corpus(kind="center")}
        inst = by_name["01-worked-instance"]
        assert inst.expected["radius"] == pytest.approx(0.5)
        assert sc.restricted_radius(inst.problem()) == pytest.approx(0.5, abs=1e-9)

    def test_every_center_expected_radius_reproduces(self):
        for inst in load_corpus(kind="center"):
            if "radius" not in inst.expected:
                continue
            got = sc.restricted_radius(inst.problem())
            assert got == pytest.approx(inst.expected["radius"], abs=1e-7), inst.name
