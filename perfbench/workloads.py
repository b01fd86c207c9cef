"""The benchmark's workloads.

Each workload generates its inputs from the workload seed and writes them to
files; the timed code starts from those files and goes through the library's
public entry points only: load_dataset or parse_citation_files, build_graph
and build_path_cache, train_regression or train_node_classification, and
evaluate_regression or the path GCN's sample-and-forward.

Every call takes the library it runs on, so the same workload runs on the
program under test (``pathmpnn``) and on the frozen reference copy
(``pathmpnn_ref`` in ``reference/``). Inputs are always generated and written
by the reference copy, so they do not change when the program does.

Why each workload exists:
- mol-geometry-l3 is the only one with geometry features and length-3
  message groups, so featurization (paths, geometry) shows here.
- mol-substructure-l2 has cheap set-up, so the training step (tensor,
  model, set2set) dominates, and geometry changes must show nothing. Its
  molecules carry rings, so ring detection runs.
- citation-path-gcn has few, large full-batch ops and none of the molecular
  layers, so a per-op overhead cut that hurts large arrays shows here.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

EPOCHS = 15              # patience is set above this, so every call runs all
N_MOLECULES = 300
N_HELDOUT = 100
HELDOUT_SEED_OFFSET = 1_000_003   # held-out molecules come from another seed
INFER_SAMPLING_SEED = 0


@dataclass(frozen=True)
class Library:
    """The modules of one copy of the library that the workloads call."""
    name: str
    citation: ModuleType
    data: ModuleType
    model: ModuleType
    molgraph: ModuleType
    synth: ModuleType
    training: ModuleType

    @classmethod
    def load(cls, package: str) -> "Library":
        return cls(package, **{m: importlib.import_module(f"{package}.{m}")
                               for m in ("citation", "data", "model", "molgraph",
                                         "synth", "training")})


@dataclass
class Prepared:
    """A model-ready dataset: what set-up produces and training consumes."""
    dataset: object
    adjacency: object = None
    caches: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # one message per failed item

    @property
    def attempted(self) -> int:
        records = getattr(self.dataset, "records", None)
        return len(records) if records is not None else 1


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def cache_is_finite(cache) -> bool:
    groups = getattr(cache, "groups", cache)
    return all(np.isfinite(getattr(g, "static", 0.0)).all() for g in groups.values())


@dataclass(frozen=True)
class MoleculeWorkload:
    name: str
    why: str
    task: str
    feature_mode: str
    path_length: int
    # the reference copy's medians on a 2-vCPU 2.1 GHz Xeon VM; run.py
    # reports each metric as its paired ratio to the reference times these
    reference: dict

    def model_config(self, lib: Library):
        return lib.model.ModelConfig(hidden_dim=12, steps=2, path_length=self.path_length,
                                     feature_mode=self.feature_mode, set2set_steps=3,
                                     n_targets=1, seed=0)

    def make_inputs(self, lib: Library, seed: int, workdir) -> dict:
        train = lib.synth.generate_molecules(self.task, N_MOLECULES, seed)
        heldout = lib.synth.generate_molecules(self.task, N_HELDOUT,
                                               seed + HELDOUT_SEED_OFFSET)
        vocab = sorted({el for r in train + heldout for el in r.elements})
        files = {"train": workdir / "train.jsonl", "heldout": workdir / "heldout.jsonl"}
        lib.data.write_molecule_file(files["train"], train, vocab)
        lib.data.write_molecule_file(files["heldout"], heldout, vocab)
        return files

    def load_heldout(self, lib: Library, files):
        return lib.data.load_dataset(files["heldout"])

    def setup(self, lib: Library, files) -> Prepared:
        """Input file to model-ready dataset: parse, graphs, path caches."""
        dataset = lib.data.load_dataset(files["train"])
        config = self.model_config(lib)
        prepared = Prepared(dataset)
        for record in dataset.records:
            try:
                graph = lib.molgraph.build_graph(record, dataset.featurizer)
                prepared.caches.append(
                    lib.model.build_path_cache(graph, config, seed=config.seed))
            except Exception as err:   # a failed molecule is counted, not fatal
                prepared.errors.append(f"{record.id}: {err!r}")
        return prepared

    def setup_failures(self, prepared: Prepared) -> list[str]:
        bad = [f"cache {i}: non-finite path features"
               for i, cache in enumerate(prepared.caches) if not cache_is_finite(cache)]
        return prepared.errors + bad

    def train(self, lib: Library, prepared: Prepared):
        settings = lib.training.TrainSettings(epochs=EPOCHS, batch_size=16, lr=3e-3,
                                              patience=EPOCHS + 1, split_seed=0)
        return lib.training.train_regression(prepared.dataset.records,
                                             self.model_config(lib), settings,
                                             prepared.dataset.featurizer)

    def quality(self, result) -> dict:
        final = result.report.final
        return {k: final[k] for k in ("test_mae", "test_rmse", "baseline_rmse")}

    def train_checks(self, prepared: Prepared, result) -> list[tuple[str, bool]]:
        q = self.quality(result)
        return [
            ("test metrics finite", _all_finite(q.values())),
            (f"beats constant predictor (test_rmse {q['test_rmse']:.4f} < "
             f"baseline_rmse {q['baseline_rmse']:.4f})",
             q["test_rmse"] < q["baseline_rmse"]),
        ]

    def infer(self, lib: Library, prepared: Prepared, heldout, result) -> tuple[int, bool]:
        """evaluate_regression on the held-out set, featurization included,
        as the eval command runs it. Returns (graphs, predictions finite)."""
        metrics = lib.training.evaluate_regression(
            heldout.records, result.params, result.model_config, result.featurizer,
            result.target_mean, result.target_std)
        return metrics["n"], _all_finite((metrics["mae"], metrics["rmse"]))


@dataclass(frozen=True)
class CitationWorkload:
    name: str
    why: str
    reference: dict

    def gcn_config(self, lib: Library):
        return lib.citation.PathGCNConfig(hidden_dim=16, path_length=3, per_hop_budget=1,
                                          resample_each_epoch=True, seed=0)

    def make_inputs(self, lib: Library, seed: int, workdir) -> dict:
        graph = lib.synth.synth_citation(n_nodes=800, n_features=1433, seed=seed)
        files = {"content": workdir / "net.content", "cites": workdir / "net.cites"}
        lib.data.write_citation_files(files["content"], files["cites"], graph)
        return files

    def load_heldout(self, lib: Library, files):
        return None

    def setup(self, lib: Library, files) -> Prepared:
        graph = lib.data.parse_citation_files(files["content"], files["cites"])
        return Prepared(graph, adjacency=lib.citation.normalize_adjacency(graph))

    def setup_failures(self, prepared: Prepared) -> list[str]:
        return prepared.errors

    def train(self, lib: Library, prepared: Prepared):
        return lib.training.train_node_classification(
            prepared.dataset, self.gcn_config(lib), epochs=EPOCHS, patience=EPOCHS + 1)

    def quality(self, result) -> dict:
        return {"test_accuracy": result.report.final["test_accuracy"]}

    def train_checks(self, prepared: Prepared, result) -> list[tuple[str, bool]]:
        accuracy = self.quality(result)["test_accuracy"]
        graph = prepared.dataset
        labels = graph.labels[graph.test_idx]
        share = float(np.bincount(labels).max() / labels.size)
        return [
            ("test metrics finite", math.isfinite(accuracy)),
            (f"beats the largest class (test_accuracy {accuracy:.4f} > "
             f"largest-class share {share:.4f})", accuracy > share),
        ]

    def infer(self, lib: Library, prepared: Prepared, heldout, result) -> tuple[int, bool]:
        """One whole-network prediction: logits averaged over eval_samples
        fresh path draws, as the final evaluation of training computes them."""
        config = self.gcn_config(lib)
        graph = prepared.dataset
        rng = np.random.default_rng(INFER_SAMPLING_SEED)
        total = 0.0
        for _ in range(config.eval_samples):
            paths = lib.citation.sample_citation_paths(graph, config, rng)
            total = total + lib.citation.path_gcn_forward(
                graph, prepared.adjacency, result.params, paths).values
        logits = total / config.eval_samples
        return 1, bool(np.isfinite(logits).all())


WORKLOADS = {
    w.name: w for w in (
        MoleculeWorkload(
            "mol-geometry-l3",
            "only workload with geometry features and length-3 paths; "
            "featurization (paths, geometry) shows here",
            task="dihedral-sum", feature_mode="geometry", path_length=3,
            reference={"setup_s": 1.03, "train_s": 3.02, "infer_graphs_per_s": 278.0}),
        MoleculeWorkload(
            "mol-substructure-l2",
            "cheap set-up, so the training step (tensor, model, set2set) "
            "dominates; ring molecules run ring detection; no geometry",
            task="solubility", feature_mode="substructure", path_length=2,
            reference={"setup_s": 0.345, "train_s": 2.50, "infer_graphs_per_s": 756.0}),
        CitationWorkload(
            "citation-path-gcn",
            "few large full-batch ops and no molecular layers; per-op "
            "overhead cuts that hurt large arrays show here",
            reference={"setup_s": 0.197, "train_s": 1.64, "infer_graphs_per_s": 4.40}),
    )
}
