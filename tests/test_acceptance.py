"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run pytest with -s to watch them stream)."""

import os
import time

import numpy as np
import pytest

from conftest import random_graph
from pathmpnn.citation import PathGCNConfig, gcn_forward, init_gcn_params, \
    normalize_adjacency, path_gcn_forward
from pathmpnn.gradchecks import full_model_gradcheck, probe_molecule
from pathmpnn.geometry import DegenerateGeometryError, dihedral
from pathmpnn.model import (ModelConfig, build_path_cache, forward,
                            forward_base_mpnn, init_params)
from pathmpnn.molgraph import FeaturizerConfig, MoleculeRecord, build_graph
from pathmpnn.paths import count_paths_oracle, enumerate_paths
from pathmpnn.data import parse_citation_files
from pathmpnn.synth import (synth_alcohol_count, synth_citation,
                            synth_dihedral_sum, synth_solubility)
from pathmpnn.training import TrainSettings, train_node_classification, \
    train_regression


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_path_enumeration_matches_oracle():
    started = time.time()
    rng = np.random.default_rng(20240)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        graph = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
        root = int(rng.integers(n))
        for max_len in range(1, 5):
            counts = {k: len(t) for k, t in enumerate_paths(graph, [root], max_len).items()}
            oracle = count_paths_oracle(graph, root, max_len)
            assert counts == {k: c for k, c in oracle.items() if c}, (n, root, max_len)
        checked += 1
    elapsed = time.time() - started
    report("criterion 1", checked == 100 and elapsed < 10.0,
           f"100 random graphs, lengths 1..4, exact oracle match in {elapsed:.1f}s")


def test_criterion_2_full_model_gradcheck():
    started = time.time()
    errors = full_model_gradcheck(seed=11)
    elapsed = time.time() - started
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 60.0
    report("criterion 2", ok,
           "full-model finite differences, max rel err "
           + ", ".join(f"{m}={e:.2e}" for m, e in errors.items())
           + f" in {elapsed:.1f}s")


def test_criterion_3_geometric_invariance():
    record, featurizer = probe_molecule()
    graph = build_graph(record, featurizer)
    config = ModelConfig(hidden_dim=6, steps=2, path_length=3,
                         feature_mode="geometry", set2set_steps=2,
                         n_targets=2, seed=4)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    y = forward(graph, params, config).values
    rng = np.random.default_rng(31)
    worst_motion = 0.0
    for _ in range(100):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = MoleculeRecord(record.id, record.elements, record.bonds,
                               targets=record.targets,
                               coords=record.coords @ q.T + rng.normal(size=3))
        y_m = forward(build_graph(moved, featurizer), params, config).values
        worst_motion = max(worst_motion, float(np.abs(y - y_m).max()))

    worst_flip = 0.0
    checked = 0
    while checked < 100:
        coords = rng.normal(size=(4, 3)) * 2.0
        try:
            phi = dihedral(coords, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        mirrored = coords.copy()
        mirrored[:, 1] = -mirrored[:, 1]
        phi_m = dihedral(mirrored, 0, 1, 2, 3)
        worst_flip = max(worst_flip,
                         abs(np.sin(phi_m) + np.sin(phi)),
                         abs(abs(phi_m) - abs(phi)))
        checked += 1
    ok = worst_motion < 1e-6 and worst_flip < 1e-9
    report("criterion 3", ok,
           f"rigid-motion drift {worst_motion:.2e} (<1e-6), "
           f"reflection sign-flip error {worst_flip:.2e} (<1e-9)")


def test_criterion_4_isomer_discrimination():
    s = np.sqrt(3.0) / 2.0
    bonds = ((0, 1, "single"), (1, 2, "single"), (2, 3, "single"))
    cis = MoleculeRecord("cis", ("C",) * 4, bonds, targets=(0.0,),
                         coords=np.array([[-0.5, s, 0], [0, 0, 0],
                                          [1, 0, 0], [1.5, s, 0]]))
    trans = MoleculeRecord("trans", ("C",) * 4, bonds, targets=(0.0,),
                           coords=np.array([[-0.5, s, 0], [0, 0, 0],
                                            [1, 0, 0], [1.5, -s, 0]]))
    featurizer = FeaturizerConfig(("C",))
    g_cis, g_trans = build_graph(cis, featurizer), build_graph(trans, featurizer)

    geo = ModelConfig(hidden_dim=6, steps=2, path_length=3,
                      feature_mode="geometry", set2set_steps=2, n_targets=1,
                      seed=17)
    params = init_params(geo, g_cis.node_dim, g_cis.edge_dim)
    gap_geo = float(np.abs(forward(g_cis, params, geo).values
                           - forward(g_trans, params, geo).values).max())

    base = ModelConfig(hidden_dim=6, steps=2, path_length=1,
                       feature_mode="base", set2set_steps=2, n_targets=1,
                       seed=17)
    params = init_params(base, g_cis.node_dim, g_cis.edge_dim)
    gap_base = float(np.abs(forward(g_cis, params, base).values
                            - forward(g_trans, params, base).values).max())
    ok = gap_geo > 1e-6 and gap_base < 1e-12
    report("criterion 4", ok,
           f"cis/trans gap: geometry mode {gap_geo:.2e} (>1e-6), "
           f"base mode {gap_base:.2e} (<1e-12)")


SEEDS = (0, 1, 2, 3, 4)
BENCH_SETTINGS = TrainSettings(epochs=60, batch_size=16, lr=3e-3, patience=15,
                               split_seed=0)


def paired_runs(records, base_config, path_config):
    base_maes, path_maes, slowest = [], [], 0.0
    for seed in SEEDS:
        for configs, out in ((base_config, base_maes), (path_config, path_maes)):
            started = time.time()
            result = train_regression(
                records, ModelConfig(**{**configs, "seed": seed}), BENCH_SETTINGS)
            out.append(result.report.final["test_mae"])
            slowest = max(slowest, time.time() - started)
    return np.array(base_maes), np.array(path_maes), slowest


def test_criterion_5_mechanism_advantage_on_synthetic_tasks():
    common = dict(hidden_dim=12, steps=2, set2set_steps=3, n_targets=1)

    alcohol = synth_alcohol_count(200, seed=7)
    base, sub, slowest_a = paired_runs(
        alcohol,
        dict(common, path_length=1, feature_mode="base"),
        dict(common, path_length=2, feature_mode="substructure"))
    alcohol_ok = sub.mean() < base.mean()

    dihedral_task = synth_dihedral_sum(200, seed=7)
    base_d, geo, slowest_d = paired_runs(
        dihedral_task,
        dict(common, path_length=1, feature_mode="base"),
        dict(common, path_length=3, feature_mode="geometry"))
    dihedral_ok = geo.mean() < 0.5 * base_d.mean()

    slowest = max(slowest_a, slowest_d)
    ok = alcohol_ok and dihedral_ok and slowest < 600.0
    report("criterion 5", ok,
           f"alcohol-count MAE {sub.mean():.3f} vs base {base.mean():.3f} "
           f"({sum(s < b for s, b in zip(sub, base))}/5 seeds better); "
           f"dihedral-sum MAE {geo.mean():.3f} vs base {base_d.mean():.3f} "
           f"(ratio {geo.mean() / base_d.mean():.2f} < 0.5); "
           f"slowest run {slowest:.0f}s (<600s)")


def load_citation_benchmark():
    """Real citation files when present (data/cora/cora.{content,cites} or
    $CORA_DIR), otherwise the bundled synthetic generator at desk scale."""
    for base in (os.environ.get("CORA_DIR", ""),
                 os.path.join(os.path.dirname(__file__), "..", "data", "cora")):
        if not base:
            continue
        content = os.path.join(base, "cora.content")
        cites = os.path.join(base, "cora.cites")
        if os.path.exists(content) and os.path.exists(cites):
            return parse_citation_files(content, cites), "cora"
    return synth_citation(n_nodes=800, seed=0), "synthetic citation fixture"


def test_criterion_6_citation_desk_scale():
    started = time.time()
    graph, source = load_citation_benchmark()
    gcn_accs, path_accs = [], []
    for seed in (1, 2):
        plain = train_node_classification(
            graph, PathGCNConfig(per_hop_budget=0, seed=seed),
            epochs=200, patience=30)
        pathy = train_node_classification(
            graph, PathGCNConfig(per_hop_budget=1, seed=seed),
            epochs=200, patience=30)
        gcn_accs.append(plain.report.final["test_accuracy"])
        path_accs.append(pathy.report.final["test_accuracy"])
        assert max(e["train_accuracy"] for e in plain.report.epochs) == 1.0
    elapsed = time.time() - started
    gcn_acc = float(np.mean(gcn_accs))
    path_acc = float(np.mean(path_accs))
    ok = gcn_acc >= 0.75 and path_acc >= gcn_acc - 0.01 and elapsed < 300.0
    report("criterion 6", ok,
           f"{source}: GCN {gcn_acc:.3f} (>=0.75), path GCN {path_acc:.3f} "
           f"(>= GCN-0.01), {elapsed:.0f}s (<300s)")


def test_criterion_7_solubility_smoke_run():
    # full-scale benchmark numbers are out of reach at desk scale; the gate
    # is an end-to-end 300-molecule run beating the constant predictor
    started = time.time()
    records = synth_solubility(300, seed=11)
    config = ModelConfig(hidden_dim=12, steps=2, path_length=2,
                         feature_mode="substructure", set2set_steps=3,
                         n_targets=1, seed=0)
    result = train_regression(records, config, BENCH_SETTINGS)
    elapsed = time.time() - started
    rmse = result.report.final["test_rmse"]
    baseline = result.report.final["baseline_rmse"]
    ok = rmse < 0.8 * baseline
    report("criterion 7", ok,
           f"300-molecule solubility run: test RMSE {rmse:.3f} vs constant "
           f"baseline {baseline:.3f} (ratio {rmse / baseline:.2f} < 0.8), "
           f"{elapsed:.0f}s")


def test_criterion_8_reduction_identities():
    # path model at length 1 against the directly written first-order MPNN
    record, featurizer = probe_molecule()
    graph = build_graph(record, featurizer)
    config = ModelConfig(hidden_dim=6, steps=2, path_length=1,
                         feature_mode="base", set2set_steps=3, n_targets=2,
                         seed=23)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    mpnn_exact = np.array_equal(forward(graph, params, config).values,
                                forward_base_mpnn(graph, params, config).values)

    # zero-budget path GCN against the plain GCN, on trained parameters
    citation = synth_citation(n_nodes=300, seed=5)
    adj = normalize_adjacency(citation)
    cfg = PathGCNConfig(per_hop_budget=0, seed=23)
    fresh = init_gcn_params(cfg, citation.features.shape[1], citation.n_classes)
    fresh_exact = np.array_equal(
        gcn_forward(citation, adj, fresh).values,
        path_gcn_forward(citation, adj, fresh, None).values)
    trained = train_node_classification(citation, cfg, epochs=20, patience=20)
    trained_exact = np.array_equal(
        gcn_forward(citation, adj, trained.params).values,
        path_gcn_forward(citation, adj, trained.params, None).values)

    ok = mpnn_exact and fresh_exact and trained_exact
    report("criterion 8", ok,
           f"length-1 path MPNN == base MPNN bit-exact: {mpnn_exact}; "
           f"zero-budget path GCN == plain GCN bit-exact "
           f"(fresh: {fresh_exact}, trained: {trained_exact})")
