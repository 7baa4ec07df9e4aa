"""Receptive-field pruning: ``model(batch, graph, rows=R)`` computes only
what the ``R`` rows read, and must equal the full forward's ``R`` rows.

* :func:`repro.graph.sampling.receptive_field` against a brute-force
  reference of the needed sets and kept edges;
* a property test (``forall``) over random graphs, every Gaia variant
  and 1-3 layers: isolated rows, rows without in-edges, empty edge
  sets, unsorted and duplicate rows, ``R`` = every node;
* the contract gate: every model the trainer can drive accepts
  ``rows=`` and returns ``(len(rows), H)`` rows equal to its full
  forward, and the Fig 4 introspection maps keep their full-forward
  shapes for ``rows=None`` and cover the layer's block otherwise;
* ``Trainer._val_loss`` (pruned) equals the full-graph val loss.

"Equal" is the pruning numerics contract: within 1e-12 relative to
the forward's output scale (BLAS may round a row differently when it
sits at a different position of a smaller matrix).
"""

import numpy as np
import pytest

from helpers import forall, random_eseller_graph
from repro.baselines.registry import ABLATION_METHODS, TABLE1_METHODS, create_model
from repro.core import GaiaConfig, build_gaia_variant
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.graph import ESellerGraph, receptive_field
from repro.nn.tensor import Tensor, no_grad
from repro.training import TrainConfig, Trainer

pytestmark = pytest.mark.engine

TOLERANCE = 1e-12
VARIANTS = ("gaia", "gaia_no_ita", "gaia_no_ffl", "gaia_no_tel")


def assert_rows_equal(pruned: np.ndarray, full: np.ndarray) -> None:
    np.testing.assert_allclose(pruned, full, rtol=TOLERANCE,
                               atol=TOLERANCE * float(np.max(np.abs(full))))


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=40, seed=17))
    return build_dataset(market)


def small_config(dataset, num_layers: int) -> GaiaConfig:
    return GaiaConfig(
        input_window=dataset.input_window, horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim, static_dim=dataset.static_dim,
        channels=8, num_scales=2, num_layers=num_layers,
    )


# ----------------------------------------------------------------------
# the needed sets
# ----------------------------------------------------------------------
def reference_field(graph: ESellerGraph, rows, num_layers: int):
    """Needed node sets (last layer first) and the edges into each."""
    needed = [set(int(r) for r in rows)]
    edges = []
    for _ in range(num_layers):
        into = [e for e in range(graph.num_edges)
                if int(graph.dst[e]) in needed[-1]]
        edges.append(into)
        needed.append(needed[-1] | {int(graph.src[e]) for e in into})
    return needed, edges


def test_receptive_field_matches_brute_force():
    def gen(rng):
        graph = random_eseller_graph(rng, max_nodes=25, max_edges=70)
        rows = rng.integers(0, graph.num_nodes,
                            size=int(rng.integers(1, 6)))
        return graph, rows, int(rng.integers(0, 4))

    def prop(case):
        graph, rows, num_layers = case
        field = receptive_field(graph, rows, num_layers)
        needed, edges = reference_field(graph, rows, num_layers)
        nodes = field.nodes.tolist()
        assert len(set(nodes)) == len(nodes)
        assert set(nodes) == needed[-1]
        # Every needed set is a prefix of the layout; rows lead it.
        first = list(dict.fromkeys(int(r) for r in rows))
        assert nodes[:len(first)] == first
        assert len(field.blocks) == num_layers
        for block, hop in zip(field.blocks, reversed(range(num_layers))):
            assert set(nodes[:block.num_out]) == needed[hop]
            assert set(nodes[:block.num_in]) == needed[hop + 1]
            assert block.edges.tolist() == edges[hop]
            np.testing.assert_array_equal(
                field.nodes[block.src], graph.src[block.edges])
            np.testing.assert_array_equal(
                field.nodes[block.dst], graph.dst[block.edges])
        if field.row_index is None:
            assert len(first) == len(rows)
        else:
            np.testing.assert_array_equal(field.nodes[field.row_index], rows)

    forall(gen, prop, trials=60, seed=3, name="receptive_field")


def test_receptive_field_rejects_bad_rows():
    graph = ESellerGraph(3, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        receptive_field(graph, [], 2)
    with pytest.raises(IndexError):
        receptive_field(graph, [3], 2)
    with pytest.raises(TypeError):
        receptive_field(graph, np.array([True, False, True]), 2)


# ----------------------------------------------------------------------
# property: pruned forward == full forward rows, every Gaia variant
# ----------------------------------------------------------------------
def test_pruned_forward_equals_full_rows(dataset):
    models = {}

    def model_for(variant, num_layers):
        key = (variant, num_layers)
        if key not in models:
            model = build_gaia_variant(
                variant, small_config(dataset, num_layers), seed=num_layers)
            model.eval()
            models[key] = model
        return models[key]

    def gen(rng):
        kind = ("random", "duplicates", "all", "no_in_edges",
                "no_edges")[int(rng.integers(0, 5))]
        graph = random_eseller_graph(rng, max_nodes=24, max_edges=60)
        n = graph.num_nodes
        if kind == "no_edges":
            graph = ESellerGraph(n, [], [])
        batch = dataset.test.subset(rng.integers(0, dataset.test.num_shops,
                                                 size=n))
        if kind == "all":
            rows = rng.permutation(n) if rng.random() < 0.5 else np.arange(n)
        elif kind == "duplicates":
            rows = rng.integers(0, n, size=int(rng.integers(2, 8)))
        elif kind == "no_in_edges":
            sources = np.flatnonzero(graph.in_degrees() == 0)
            rows = (rng.permutation(sources)[:4] if sources.size
                    else rng.integers(0, n, size=1))
        else:
            rows = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        variant = VARIANTS[int(rng.integers(0, len(VARIANTS)))]
        return graph, batch, rows, variant, int(rng.integers(1, 4))

    def prop(case):
        graph, batch, rows, variant, num_layers = case
        model = model_for(variant, num_layers)
        with no_grad():
            full = model(batch, graph).data
            pruned = model(batch, graph, rows=rows).data
        assert pruned.shape == (len(rows), batch.horizon)
        assert_rows_equal(pruned, full[rows])

    forall(gen, prop, trials=80, seed=11, name="pruned forward")


def test_pruned_val_loss_equals_full_graph_loss(dataset):
    trainer = Trainer(build_gaia_variant("gaia", small_config(dataset, 2)),
                      dataset, TrainConfig(epochs=1))
    trainer.fit()
    pruned = trainer._val_loss()
    trainer.model.eval()
    with no_grad():
        full = trainer._loss(dataset.val, "val").item()
    assert abs(pruned - full) <= TOLERANCE * abs(full)


# ----------------------------------------------------------------------
# contract gate: every trainable model accepts rows=
# ----------------------------------------------------------------------
TRAINABLE = sorted(set(TABLE1_METHODS + ABLATION_METHODS) - {"ARIMA"})


@pytest.mark.parametrize("name", TRAINABLE)
def test_every_trainable_model_serves_rows(dataset, name):
    model = create_model(name, dataset, seed=0, channels=8)
    model.eval()
    rows = np.array([7, 2, 31, 2, 0])
    with no_grad():
        full = model(dataset.test, dataset.graph).data
        pruned = model(dataset.test, dataset.graph, rows=rows)
    assert isinstance(pruned, Tensor)
    assert pruned.shape == (rows.size, dataset.horizon)
    assert_rows_equal(pruned.data, full[rows])


def test_attention_maps_cover_the_layer_block(dataset):
    """Fig 4 case-study maps: full-forward shapes for ``rows=None``; for
    a pruned forward, layer ``l``'s maps are the full maps restricted to
    its block (``last_intra_attention`` per output row,
    ``last_alpha``/``last_inter_attention`` per ``block.edges`` edge)."""
    model = build_gaia_variant("gaia", small_config(dataset, 2), seed=0)
    model.eval()
    graph, batch = dataset.graph, dataset.test
    s, e, t = graph.num_nodes, graph.num_edges, batch.input_window
    rows = np.array([5, 1, 22])
    with no_grad():
        model(batch, graph)
        full = [(layer.last_alpha, layer.last_inter_attention,
                 layer.last_intra_attention) for layer in model.layers]
        model(batch, graph, rows=rows)
    field = receptive_field(graph, rows, len(model.layers))
    for layer, (alpha, inter, intra), block in zip(model.layers, full,
                                                   field.blocks):
        assert alpha.shape == (e,)
        assert inter.shape == (e, t, t)
        assert intra.shape == (s, t, t)
        out_nodes = field.nodes[:block.num_out]
        assert_rows_equal(layer.last_intra_attention, intra[out_nodes])
        assert_rows_equal(layer.last_alpha, alpha[block.edges])
        assert_rows_equal(layer.last_inter_attention, inter[block.edges])
    assert model.neighbor_alpha().shape == (field.blocks[-1].edges.size,)
    assert model.intra_attention().shape == (rows.size, t, t)
