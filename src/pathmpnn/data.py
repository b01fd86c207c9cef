"""File formats and run configuration.

Molecule datasets are one JSON object per line; an optional first line
without an "id" key is the dataset header and may declare the element
vocabulary. Citation data uses the classic two-file format: a content file
(id, binary word features, label) and a cites file (id pairs).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import citation as cit
from . import model as mdl
from .model import ConfigError
from .molgraph import (FeaturizerConfig, MoleculeRecord, validate_record,
                       vocab_from_records)
from .training import TrainSettings


class DataFormatError(ValueError):
    pass


# -- molecule files ----------------------------------------------------------

def record_to_dict(record: MoleculeRecord) -> dict:
    out = {
        "id": record.id,
        "elements": list(record.elements),
        "bonds": [[i, j, order] for i, j, order in record.bonds],
        "targets": list(record.targets),
    }
    if record.coords is not None:
        out["coords"] = [[float(x) for x in row] for row in record.coords]
    return out


def record_from_dict(data: dict, where: str = "") -> MoleculeRecord:
    try:
        record = MoleculeRecord(
            id=str(data["id"]),
            elements=tuple(data["elements"]),
            bonds=tuple((int(i), int(j), str(order)) for i, j, order in data["bonds"]),
            targets=tuple(float(t) for t in data.get("targets", [])),
            coords=np.asarray(data["coords"], dtype=np.float64)
            if data.get("coords") is not None else None,
        )
    except KeyError as err:
        raise DataFormatError(f"{where}: missing field {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise DataFormatError(f"{where}: {err}") from None
    try:
        validate_record(record)
    except ValueError as err:
        raise DataFormatError(f"{where}: {err}") from None
    return record


def parse_molecule_file(path) -> list[MoleculeRecord]:
    """One molecule per line; malformed lines fail with their line number."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({err.msg})") from None
            if "id" not in data:
                if lineno == 1:
                    continue  # dataset header
                raise DataFormatError(f"{path}:{lineno}: missing field 'id'")
            records.append(record_from_dict(data, where=f"{path}:{lineno}"))
    return records


def read_dataset_header(path) -> dict:
    with open(path) as fh:
        first = fh.readline().strip()
    if not first:
        return {}
    data = json.loads(first)
    return data if "id" not in data else {}


@dataclass
class MoleculeDataset:
    records: list
    featurizer: FeaturizerConfig


def load_dataset(path, explicit_hydrogens: bool | None = None) -> MoleculeDataset:
    """Parse a molecule file and settle the featurizer: vocabulary from the
    header when present, otherwise from the symbols in the file."""
    header = read_dataset_header(path)
    records = parse_molecule_file(path)
    if "element_vocab" in header:
        vocab = tuple(header["element_vocab"])
    else:
        vocab = vocab_from_records(records)
    if explicit_hydrogens is None:
        explicit_hydrogens = bool(header.get("explicit_hydrogens", False))
    return MoleculeDataset(records=records,
                           featurizer=FeaturizerConfig(vocab, explicit_hydrogens))


def write_molecule_file(path, records, element_vocab=None,
                        explicit_hydrogens=False):
    with open(path, "w") as fh:
        header = {"explicit_hydrogens": explicit_hydrogens}
        if element_vocab is None:
            element_vocab = vocab_from_records(records)
        header["element_vocab"] = list(element_vocab)
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")


# -- citation files ----------------------------------------------------------

def parse_citation_files(content_path, cites_path, train_per_class: int = 20,
                         val_size: int = 500, test_size: int = 1000) -> cit.CitationGraph:
    """Read the classic content/cites pair. Document ids become dense
    indices by first appearance; citations naming unknown ids are dropped
    with a counted warning."""
    ids: list[str] = []
    index: dict[str, int] = {}
    rows = []
    label_names: list[str] = []
    label_index: dict[str, int] = {}
    labels = []
    n_features = None
    with open(content_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 3:
                raise DataFormatError(f"{content_path}:{lineno}: expected id, features, label")
            doc_id, *feat, label = tokens
            if n_features is None:
                n_features = len(feat)
            elif len(feat) != n_features:
                raise DataFormatError(
                    f"{content_path}:{lineno}: {len(feat)} features, expected {n_features}")
            if doc_id in index:
                raise DataFormatError(f"{content_path}:{lineno}: duplicate id {doc_id!r}")
            index[doc_id] = len(ids)
            ids.append(doc_id)
            rows.append([float(x) for x in feat])
            if label not in label_index:
                label_index[label] = len(label_names)
                label_names.append(label)
            labels.append(label_index[label])

    edges = set()
    dropped = 0
    with open(cites_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise DataFormatError(f"{cites_path}:{lineno}: expected two ids")
            a, b = tokens
            if a not in index or b not in index:
                dropped += 1
                continue
            u, v = index[a], index[b]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    if dropped:
        warnings.warn(f"{cites_path}: dropped {dropped} citation pairs with unknown ids")

    n = len(ids)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(label_names)
    taken = []
    per_class = {c: 0 for c in range(n_classes)}
    for v in range(n):
        if per_class[labels[v]] < train_per_class:
            per_class[labels[v]] += 1
            taken.append(v)
    train = np.asarray(taken, dtype=np.int64)
    pool = np.asarray([v for v in range(n) if v not in set(taken)], dtype=np.int64)
    val = pool[:min(val_size, len(pool) // 2)]
    test = pool[len(val):][-test_size:]
    return cit.CitationGraph(
        n=n, edges=tuple(sorted(edges)), features=np.asarray(rows),
        labels=labels, train_idx=train, val_idx=val, test_idx=test,
        n_classes=n_classes, ids=tuple(ids))


def write_citation_files(content_path, cites_path, graph: cit.CitationGraph):
    ids = graph.ids or tuple(f"doc{v}" for v in range(graph.n))
    with open(content_path, "w") as fh:
        for v in range(graph.n):
            feats = " ".join(str(int(x)) for x in graph.features[v])
            fh.write(f"{ids[v]} {feats} class{graph.labels[v]}\n")
    with open(cites_path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{ids[u]} {ids[v]}\n")


# -- run configuration ---------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    task: str = "regression"            # regression | citation
    dataset: str = ""                   # molecule file (regression)
    content: str = ""                   # citation content file
    cites: str = ""                     # citation cites file
    model: mdl.ModelConfig = field(default_factory=mdl.ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    gcn: cit.PathGCNConfig = field(default_factory=cit.PathGCNConfig)
    epochs: int = 200                   # citation training length
    patience: int = 30
    explicit_hydrogens: bool | None = None
    checkpoint: str = ""
    repeats: int = 1

    def validate(self):
        if self.task not in ("regression", "citation"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == "regression" and not self.dataset:
            raise ConfigError("regression task needs a dataset path")
        if self.task == "citation" and not (self.content and self.cites):
            raise ConfigError("citation task needs content and cites paths")
        if self.repeats < 1:
            raise ConfigError("repeats must be positive")


def _json_object(data, where) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {json.dumps(data)}")
    return data


def _from_dict(dc_type, data, where):
    known = {f.name: f for f in fields(dc_type)}
    unknown = set(_json_object(data, where)) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return dc_type(**data)
    except TypeError as err:
        raise ConfigError(f"{where}: {err}") from None


# Model settings that no longer exist, with the one value each had in every
# run. Older checkpoints and report snapshots carry them; that value is
# dropped, any other is refused.
RETIRED_MODEL_KEYS = {"attention_heads": 1, "joint_attention": True,
                      "exact_length_only": False, "sample_budget": None}


def model_config_from_dict(data: dict, where: str = "model") -> mdl.ModelConfig:
    """A ModelConfig from a run config's model block, a report's config
    snapshot or a checkpoint's metadata."""
    data = dict(_json_object(data, where))
    for key, default in RETIRED_MODEL_KEYS.items():
        if key in data:
            value = data.pop(key)
            if type(value) is not type(default) or value != default:
                raise ConfigError(f"{where}: {key} is no longer a setting; only its "
                                  f"former default {json.dumps(default)} is accepted, "
                                  f"got {json.dumps(value)}")
    return _from_dict(mdl.ModelConfig, data, where)


def run_config_from_dict(data: dict) -> RunConfig:
    data = dict(_json_object(data, "run config"))
    nested = {}
    if "model" in data:
        nested["model"] = model_config_from_dict(data.pop("model"))
    for key, dc_type in (("train", TrainSettings), ("gcn", cit.PathGCNConfig)):
        if key in data:
            nested[key] = _from_dict(dc_type, data.pop(key), key)
    config = _from_dict(RunConfig, {**data, **nested}, "run config")
    config.validate()
    return config


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err.msg})") from None
    return run_config_from_dict(data)
