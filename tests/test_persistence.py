"""Model files: exact JSON round trips and strict, all-or-nothing loading."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairnet.activation import ActivationKind
from pairnet.datasets import Dataset, gen_train
from pairnet.model import LocalPairNet, PairNetModel, forward
from pairnet.partition import Interval, random_partition, uniform_partition
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
        part = uniform_partition((Interval(0, 2), Interval(0, 2)), (1, 2))
        locs = (
            make_local(n=2, seed=1),
            # loader rebuilds fallback cells with zeroed parameters
            LocalPairNet(alphas=(0.5, 0.5), c=np.zeros(4), gamma=np.zeros(4), fallback_mean=2.5),
        )
        model = PairNetModel(partition=part, locals=locs)
        path = tmp_path / "fb.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert back.locals[1].fallback_mean == 2.5
        entry = _doc(path)["locals"][1]
        assert "c" not in entry and "gamma" not in entry

    def test_linear_given_a_steepness_survives(self, make_local, tmp_path):
        part = uniform_partition((Interval(0, 2), Interval(1, 5)), (2, 1))
        locs = tuple(make_local(n=2, seed=j) for j in range(part.size))
        model = PairNetModel(partition=part, locals=locs,
                             activation=ActivationKind("linear", 9.0))
        path = tmp_path / "lin.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_sigmoid_and_domain_scope_survive(self, make_local, tmp_path):
        part = uniform_partition((Interval(0, 2), Interval(1, 5)), (2, 1))
        kind = ActivationKind("sigmoid", 7.25)
        locs = tuple(make_local(n=2, seed=j) for j in range(part.size))
        model = PairNetModel(partition=part, locals=locs, activation_scope="domain",
                             activation=kind)
        path = tmp_path / "sig.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert back.activation == kind
        assert back.activation_scope == "domain"

    def test_prediction_tables_are_built_on_first_prediction(self, fitted_model, tmp_path):
        """A constructed or loaded model builds its one prediction table on
        its first forward(), once. A fitted model's first prediction is
        fit's pass over its training rows, so it carries that table, and
        its own first forward() reuses it."""
        model, ds = fitted_model
        fresh, _ = fit(ds, model.partition, FitConfig(alphas=(0.1, 0.1, 0.8)))
        fitted_table = vars(fresh)["_table"]
        assert fitted_table.shape == (3 * 3 + 2 + 3 * 4 // 2, fresh.partition.size)
        path = tmp_path / "m.json"
        save_model(fresh, path)
        back = load_model(path)
        built = PairNetModel(partition=fresh.partition, locals=fresh.locals)
        assert "_table" not in vars(back) and "_table" not in vars(built)
        forward(fresh, ds.X[:5])
        assert vars(fresh)["_table"] is fitted_table
        for other in (back, built):
            forward(other, ds.X[:5])
            table = vars(other)["_table"]
            forward(other, ds.X)
            assert vars(other)["_table"] is table

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


    def test_non_finite_provenance_is_refused(self, fitted_model, tmp_path):
        import dataclasses

        model, _ = fitted_model
        model = dataclasses.replace(model, provenance={"scores": [1.0, np.float64(np.nan)]})
        with pytest.raises(ValueError, match=re.escape("provenance.scores[1]: cannot save "
                                                       "the non-finite value nan")):
            save_model(model, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_non_finite_parameters_are_refused(self, fitted_model):
        """A model refuses a non-finite c or gamma when it is built, a
        fallback cell's inert ones too; the error names the local and the
        field and lists its values."""
        import dataclasses

        model, _ = fitted_model
        j = next(j for j, loc in enumerate(model.locals) if loc.fallback_mean is None)
        for name, fallback in (("c", None), ("gamma", None), ("c", 1.5)):
            values = getattr(model.locals[j], name).copy()
            values[1] = np.inf
            bad = dataclasses.replace(model.locals[j], fallback_mean=fallback, **{name: values})
            want = f"locals[{j}].{name} contains non-finite values: {values.tolist()}"
            with pytest.raises(ValueError, match=re.escape(want)):
                dataclasses.replace(model, locals=(*model.locals[:j], bad, *model.locals[j + 1:]))

    def test_nan_parameters_never_reach_forward(self):
        part = uniform_partition((Interval(0.0, 1.0), Interval(0.0, 1.0)), (1, 1))
        local = LocalPairNet((0.5, 0.5), [np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0])
        with pytest.raises(ValueError, match=re.escape(
                "locals[0].c contains non-finite values: [nan, 0.0, 0.0, 0.0]")):
            PairNetModel(partition=part, locals=(local,))


def _random_model(gen):
    """A small model: 1-3 inputs, a random partition, either activation
    and scope, per-cell alphas and some fallback cells, whose parameters
    are zero, as fit leaves them."""
    n = int(gen.integers(1, 4))
    lo = gen.uniform(-5.0, 5.0, size=n)
    domain = tuple(Interval(a, a + w) for a, w in zip(lo.tolist(), gen.uniform(0.1, 10.0, n)))
    part = random_partition(domain, (1, 3), gen)
    locs = []
    for _ in range(part.size):
        fallback = float(gen.normal()) if gen.uniform() < 0.3 else None
        scale = 0.0 if fallback is not None else 10.0 ** gen.integers(-3, 4)
        locs.append(LocalPairNet(alphas=gen.dirichlet(np.ones(n)),
                                 c=scale * gen.normal(size=2**n),
                                 gamma=scale * gen.normal(size=2**n), fallback_mean=fallback))
    kind = (ActivationKind("sigmoid", float(gen.uniform(0.5, 9.0))) if gen.uniform() < 0.5
            else ActivationKind("linear"))
    scope = "domain" if gen.uniform() < 0.5 else "subspace"
    return PairNetModel(partition=part, locals=tuple(locs), activation_scope=scope,
                        activation=kind)


class TestRandomModels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_save_load_save_is_byte_stable(self, seed, tmp_path_factory):
        """Any model saves, loads to an equal model that predicts bitwise
        the same, and saves again to the same bytes."""
        gen = np.random.default_rng(seed)
        model = _random_model(gen)
        first = tmp_path_factory.mktemp("m") / "a.json"
        second = first.with_name("b.json")
        save_model(model, first)
        back = load_model(first)
        save_model(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert back == model
        lo = np.array([e[0] for e in model.partition.edges])
        hi = np.array([e[-1] for e in model.partition.edges])
        X = gen.uniform(lo - 1.0, hi + 1.0, size=(200, model.n))
        np.testing.assert_array_equal(forward(back, X), forward(model, X))


FIXTURES = Path(__file__).resolve().parent / "data"


class TestFormat1Fixture:
    """tests/data/model_v1.json was written by pairnet while each cell still
    carried its box and activation: a sigmoid, domain-scoped 3-2 model
    with one fallback cell. model_v1_predictions.json holds what that
    code predicted at a few points, as float.hex strings."""

    def test_loads_and_resaves_byte_identically(self, tmp_path):
        model = load_model(FIXTURES / "model_v1.json")
        assert model.activation == ActivationKind("sigmoid", 5.5)
        assert model.activation_scope == "domain"
        assert [loc.fallback_mean is not None for loc in model.locals] == [False] * 5 + [True]
        save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (FIXTURES / "model_v1.json").read_bytes()

    def test_predicts_what_its_writer_predicted(self):
        model = load_model(FIXTURES / "model_v1.json")
        want = json.loads((FIXTURES / "model_v1_predictions.json").read_text())
        got = forward(model, np.array(want["points"]))
        assert [float(v).hex() for v in got] == want["predictions"]


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

    def test_alphas_length_must_match_n(self, saved):
        doc = _doc(saved)
        doc["locals"][1]["alphas"] = [0.5, 0.5]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=r"locals\[1\]: c must have length 4"):
            load_model(saved)

    @pytest.mark.parametrize("n", [0, 21])
    def test_dimension_out_of_range_refused(self, saved, n):
        """n is checked before any 2^n-long parameter list is built."""
        doc = _doc(saved)
        doc["n"] = n
        doc["partition_edges"] = [[0.0, 1.0]] * n
        doc["locals"] = [{"index": 0, "alphas": [1.0 / n] * n if n else [], "fallback_mean": 0.0}]
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=rf"n must lie in \[1, 20\], got {n}"):
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

    @pytest.mark.parametrize("span", [(-1e308, 1e308), (-1e308, 0.0, 1e308)])
    def test_overflowing_edge_span_rejected(self, saved, span):
        doc = _doc(saved)
        doc["partition_edges"][1] = list(span)   # refused before any local is read
        _dump(saved, doc)
        with pytest.raises(ModelFormatError, match=r"partition_edges: dimension 1: breakpoint span"):
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
