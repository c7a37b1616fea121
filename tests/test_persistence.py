"""Model files: exact JSON round trips and strict, all-or-nothing loading."""

import json
import re

import numpy as np
import pytest

from pairnet.activation import ActivationKind
from pairnet.datasets import Dataset, gen_train
from pairnet.model import forward
from pairnet.partition import uniform_partition
from pairnet.persistence import (
    FORMAT_VERSION,
    ModelFormatError,
    ModelVersionError,
    load_model,
    save_model,
)
from pairnet.trainer import FitConfig, fit


@pytest.fixture(scope="module")
def fitted_model():
    full = gen_train("f2")
    idx = np.random.default_rng(3).choice(len(full), size=1200, replace=False)
    ds = Dataset(full.X[idx], full.y[idx], full.domain)
    model, _ = fit(ds, uniform_partition(ds.domain, (2, 2, 2)),
                   FitConfig(alphas=(0.1, 0.1, 0.8)))
    return model, ds


def _doc(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(path, doc):
    path.write_text(json.dumps(doc))


class TestRoundTrip:
    def test_model_survives_exactly(self, fitted_model, tmp_path):
        model, ds = fitted_model
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        np.testing.assert_array_equal(forward(back, ds.X), forward(model, ds.X))

    def test_reserialization_is_byte_stable(self, fitted_model, tmp_path):
        model, _ = fitted_model
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_compact(self, fitted_model, tmp_path):
        model, _ = fitted_model
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert ", " not in text and '": ' not in text
        assert text == json.dumps(_doc(path), separators=(",", ":")) + "\n"

    def test_indented_file_loads(self, fitted_model, tmp_path):
        """Files written with indentation, as older versions wrote them,
        load to the same model, and saving it again writes the compact form."""
        model, ds = fitted_model
        compact, indented, again = (tmp_path / f"{name}.json"
                                    for name in ("compact", "indented", "again"))
        save_model(model, compact)
        indented.write_text(json.dumps(_doc(compact), indent=2) + "\n")
        back = load_model(indented)
        assert back == model
        np.testing.assert_array_equal(forward(back, ds.X), forward(model, ds.X))
        save_model(back, again)
        assert again.read_bytes() == compact.read_bytes()

    def test_fallback_cells_survive(self, make_local, tmp_path):
        from pairnet.activation import LINEAR
        from pairnet.model import LocalPairNet, PairNetModel
        from pairnet.partition import Interval

        part = uniform_partition((Interval(0, 2), Interval(0, 2)), (1, 2))
        locs = (
            make_local(n=2, seed=1, subspace=part.cell(0)),
            # loader rebuilds fallback cells with zeroed parameters
            LocalPairNet(n=2, alphas=(0.5, 0.5), c=np.zeros(4), gamma=np.zeros(4),
                         subspace=part.cell(1), activation=LINEAR, fallback_mean=2.5),
        )
        model = PairNetModel(partition=part, locals=locs)
        path = tmp_path / "fb.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert back.locals[1].fallback_mean == 2.5
        entry = _doc(path)["locals"][1]
        assert "c" not in entry and "gamma" not in entry

    def test_sigmoid_and_domain_scope_survive(self, make_local, tmp_path):
        from pairnet.model import PairNetModel
        from pairnet.partition import Interval

        part = uniform_partition((Interval(0, 2), Interval(1, 5)), (2, 1))
        kind = ActivationKind("sigmoid", 7.25)
        locs = tuple(
            make_local(n=2, seed=j, subspace=part.domain, activation=kind)
            for j in range(part.size)
        )
        model = PairNetModel(partition=part, locals=locs, activation_scope="domain")
        path = tmp_path / "sig.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert back.locals[0].activation == kind
        assert back.activation_scope == "domain"

    def test_prediction_tables_are_built_on_first_prediction(self, fitted_model, tmp_path):
        """Constructing, saving and loading a model build no prediction
        tables; the first forward() does, once."""
        model, ds = fitted_model
        fresh, _ = fit(ds, model.partition, FitConfig(alphas=(0.1, 0.1, 0.8)))
        path = tmp_path / "m.json"
        save_model(fresh, path)
        back = load_model(path)
        assert "_tables" not in vars(fresh) and "_tables" not in vars(back)
        forward(back, ds.X[:5])
        tables = vars(back)["_tables"]
        forward(back, ds.X)
        assert vars(back)["_tables"] is tables

    def test_provenance_round_trips(self, fitted_model, tmp_path):
        import dataclasses

        model, _ = fitted_model
        model = dataclasses.replace(
            model, provenance={"seed": 3, "alphas": (0.1, 0.1, 0.8),
                               "note": "x", "vec": np.array([1.5, 2.5])}
        )
        path = tmp_path / "prov.json"
        save_model(model, path)
        prov = load_model(path).provenance
        assert prov["seed"] == 3
        assert prov["alphas"] == [0.1, 0.1, 0.8]
        assert prov["vec"] == [1.5, 2.5]

    def test_unserializable_provenance_is_refused(self, fitted_model, tmp_path):
        import dataclasses

        model, _ = fitted_model
        model = dataclasses.replace(model, provenance={"bad": object()})
        with pytest.raises(ValueError, match="provenance.bad"):
            save_model(model, tmp_path / "x.json")


class TestStrictLoading:
    @pytest.fixture()
    def saved(self, fitted_model, tmp_path):
        model, _ = fitted_model
        path = tmp_path / "m.json"
        save_model(model, path)
        return path

    def test_version_gate(self, saved):
        doc = _doc(saved)
        doc["format_version"] = FORMAT_VERSION + 1
        _dump(saved, doc)
        with pytest.raises(ModelVersionError, match="unsupported"):
            load_model(saved)

    def test_version_must_be_integer(self, saved):
        doc = _doc(saved)
        doc["format_version"] = "1"
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(saved)

    def test_missing_version(self, saved):
        doc = _doc(saved)
        del doc["format_version"]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(saved)

    def test_unknown_top_level_key(self, saved):
        doc = _doc(saved)
        doc["compression"] = "zip"
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="compression"):
            load_model(saved)

    def test_library_version_must_be_a_string(self, saved):
        doc = _doc(saved)
        assert isinstance(doc["library_version"], str)  # save stamps it
        doc["library_version"] = 0.1
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="library_version"):
            load_model(saved)

    def test_unknown_local_key(self, saved):
        doc = _doc(saved)
        doc["locals"][0]["bias"] = 1.0
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=r"locals\[0\].bias"):
            load_model(saved)

    def test_unknown_activation_key(self, saved):
        doc = _doc(saved)
        doc["activation"]["steepness"] = 4.0  # linear carries no steepness
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="activation"):
            load_model(saved)

    def test_alpha_invariant_enforced(self, saved):
        doc = _doc(saved)
        doc["locals"][2]["alphas"] = [0.5, 0.5, 0.5]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=r"locals\[2\].*sum to 1"):
            load_model(saved)

    def test_wrong_parameter_length(self, saved):
        doc = _doc(saved)
        doc["locals"][0]["c"] = doc["locals"][0]["c"][:-1]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=r"locals\[0\]"):
            load_model(saved)

    def test_local_count_must_match_partition(self, saved):
        doc = _doc(saved)
        doc["locals"] = doc["locals"][:-1]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="cells"):
            load_model(saved)

    def test_local_index_must_be_flat_order(self, saved):
        doc = _doc(saved)
        doc["locals"][0]["index"] = 3
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="flat order"):
            load_model(saved)

    def test_fallback_and_parameters_conflict(self, saved):
        doc = _doc(saved)
        doc["locals"][0]["fallback_mean"] = 1.0
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="both"):
            load_model(saved)

    def test_decreasing_edges_rejected(self, saved):
        doc = _doc(saved)
        doc["partition_edges"][0] = sorted(doc["partition_edges"][0], reverse=True)
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="partition_edges"):
            load_model(saved)

    @pytest.mark.parametrize("keys,value,field", [
        (("locals", 1, "c", 3), np.nan, "locals[1].c[3]"),
        (("locals", 0, "gamma", 0), np.inf, "locals[0].gamma[0]"),
        (("locals", 2, "alphas", 1), np.nan, "locals[2].alphas[1]"),
        (("locals", 1, "fallback_mean"), -np.inf, "locals[1].fallback_mean"),
        (("partition_edges", 1, 1), np.nan, "partition_edges[1][1]"),
        (("locals", 3, "c", 0), 10**400, "locals[3].c[0]"),
    ])
    def test_non_finite_number_rejected(self, saved, keys, value, field):
        """JSON's NaN and Infinity literals parse as floats, and an integer
        past the float range has no float value; the loader refuses them
        and names the field."""
        doc = _doc(saved)
        if keys[-1] == "fallback_mean":
            del doc["locals"][1]["c"], doc["locals"][1]["gamma"]
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        saved.write_text(json.dumps(doc))  # NaN, Infinity or a 401-digit integer
        with pytest.raises(ModelFormatError, match=rf"{re.escape(field)} must be finite"):
            load_model(saved)

    def test_bad_scope(self, saved):
        doc = _doc(saved)
        doc["activation_scope"] = "global"
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match="activation_scope"):
            load_model(saved)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="top level"):
            load_model(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")
