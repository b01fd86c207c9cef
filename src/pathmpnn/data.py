"""File formats and run configuration.

Molecule datasets are one JSON object per line; an optional first line
without an "id" key is the dataset header and may declare the element
vocabulary and the hydrogen convention. Citation data uses the classic
two-file format: a content file (id, word features, label) and a cites file
(id pairs).
"""

from __future__ import annotations

import json
import sys
import types
import warnings
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

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


def _checked_list(data: dict, key: str, ok, what: str, where: str) -> list:
    """data[key], which must be a JSON list whose every item passes ok."""
    value = data[key]
    if not isinstance(value, list):
        raise DataFormatError(f"{where}: {key} must be a list, got {json.dumps(value)}")
    for i, item in enumerate(value):
        if not ok(item):
            raise DataFormatError(f"{where}: {key}[{i}] must be {what}, "
                                  f"got {json.dumps(item)}")
    return value


# item checks on values as json.loads gives them: a boolean is no integer,
# an integer is a number
def _is_number(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max   # finite


def _is_bond(x) -> bool:
    return type(x) is list and len(x) == 3 and type(x[0]) is int and type(x[1]) is int


def _is_point(x) -> bool:
    return type(x) is list and len(x) == 3 and all(map(_is_number, x))


def record_from_dict(data: dict, where: str = "") -> MoleculeRecord:
    """A molecule from one line's object. Nothing is coerced: id and elements
    are strings, bond atom indices integers, targets and coords finite."""
    data = {"targets": [], "coords": None, **data}
    try:
        if not isinstance(data["id"], str):
            raise DataFormatError(f"{where}: id must be a string, got {json.dumps(data['id'])}")
        record = MoleculeRecord(
            id=data["id"],
            elements=tuple(_checked_list(data, "elements", lambda x: isinstance(x, str),
                                         "a string", where)),
            bonds=tuple((i, j, str(order)) for i, j, order in _checked_list(
                data, "bonds", _is_bond, "[i, j, order] with integer atom indices", where)),
            targets=tuple(float(t) for t in _checked_list(
                data, "targets", _is_number, "a finite number", where)),
            coords=None if data["coords"] is None else np.asarray(_checked_list(
                data, "coords", _is_point, "[x, y, z] of finite numbers", where),
                dtype=np.float64),
        )
    except KeyError as err:
        raise DataFormatError(f"{where}: missing field {err.args[0]!r}") from None
    try:
        validate_record(record)
    except ValueError as err:
        raise DataFormatError(f"{where}: {err}") from None
    return record


def _check_header(header: dict, where: str):
    unknown = set(header) - {"element_vocab", "explicit_hydrogens"}
    if unknown:
        raise DataFormatError(f"{where}: unknown header keys {sorted(unknown)} "
                              f"(a molecule line needs an 'id')")
    if "element_vocab" in header:
        vocab = _checked_list(header, "element_vocab", lambda x: isinstance(x, str),
                              "a string", where)
        if len(set(vocab)) != len(vocab):
            raise DataFormatError(f"{where}: element_vocab lists a symbol twice")
    if not isinstance(header.get("explicit_hydrogens", False), bool):
        raise DataFormatError(f"{where}: explicit_hydrogens must be a boolean, "
                              f"got {json.dumps(header['explicit_hydrogens'])}")


@dataclass
class MoleculeDataset:
    records: list
    featurizer: FeaturizerConfig


def load_dataset(path, explicit_hydrogens: bool | None = None) -> MoleculeDataset:
    """Parse a molecule file in one pass and settle the featurizer:
    vocabulary from the header when present, otherwise from the symbols in
    the file. A malformed line or a repeated id fails naming file and line."""
    header, records, id_lines = {}, [], {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{where}: invalid JSON ({err.msg})") from None
            if not isinstance(data, dict):
                raise DataFormatError(f"{where}: expected a JSON object, "
                                      f"got {json.dumps(data)}")
            if "id" in data:
                record = record_from_dict(data, where)
                if record.id in id_lines:
                    raise DataFormatError(f"{where}: repeated id {record.id!r} "
                                          f"(first on line {id_lines[record.id]})")
                id_lines[record.id] = lineno
                records.append(record)
            elif lineno == 1:
                _check_header(data, where)
                header = data
            else:
                raise DataFormatError(f"{where}: missing field 'id'")
    vocab = (tuple(header["element_vocab"]) if "element_vocab" in header
             else vocab_from_records(records))
    if explicit_hydrogens is None:
        explicit_hydrogens = header.get("explicit_hydrogens", False)
    return MoleculeDataset(records=records,
                           featurizer=FeaturizerConfig(vocab, explicit_hydrogens))


def parse_molecule_file(path) -> list[MoleculeRecord]:
    """The molecules of a file load_dataset reads."""
    return load_dataset(path).records


def write_molecule_file(path, records, element_vocab=None,
                        explicit_hydrogens=False):
    vocab = vocab_from_records(records) if element_vocab is None else element_vocab
    with open(path, "w") as fh:
        fh.write(json.dumps({"explicit_hydrogens": explicit_hydrogens,
                             "element_vocab": list(vocab)}) + "\n")
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")


# -- citation files ----------------------------------------------------------

def parse_citation_files(content_path, cites_path, train_per_class: int = 20,
                         val_size: int = 500, test_size: int = 1000) -> cit.CitationGraph:
    """Read the classic content/cites pair. Document ids become dense
    indices by first appearance; citations naming unknown ids are dropped
    with a counted warning."""
    index: dict[str, int] = {}
    rows, row_lines = [], []
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
            index[doc_id] = len(index)
            row_lines.append(lineno)
            try:
                rows.append([float(x) for x in feat])
            except ValueError as err:
                raise DataFormatError(f"{content_path}:{lineno}: feature values must be "
                                      f"numbers ({err})") from None
            labels.append(label_index.setdefault(label, len(label_index)))
    features = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=-1))   # float() reads nan, inf
    if bad.size:
        value = next(v for v in features[bad[0]] if not np.isfinite(v))
        raise DataFormatError(f"{content_path}:{row_lines[bad[0]]}: feature values must be "
                              f"finite numbers, got {value}")

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

    n = len(index)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(label_index)
    train = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.flatnonzero(labels == c)[:train_per_class] for c in range(n_classes)]))
    pool = np.setdiff1d(np.arange(n, dtype=np.int64), train)
    val = pool[:min(val_size, len(pool) // 2)]
    test = pool[len(val):][-test_size:]
    return cit.CitationGraph(
        n=n, edges=tuple(sorted(edges)), features=features,
        labels=labels, train_idx=train, val_idx=val, test_idx=test,
        n_classes=n_classes, ids=tuple(index))


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


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", type(None): "null"}


def _has_type(value, hint) -> bool:
    """JSON's types against a field's annotation: a bool is no number, an
    integer is a valid float."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arg) for arg in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _from_dict(dc_type, data, where):
    hints = get_type_hints(dc_type)
    unknown = set(_json_object(data, where)) - {f.name for f in fields(dc_type)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        hint = hints[key]
        if not _has_type(value, hint):
            expected = " or ".join(_TYPE_NAMES[t] for t in get_args(hint) or (hint,))
            raise ConfigError(f"{where}: {key} must be {expected}, "
                              f"got {json.dumps(value)}")
    return dc_type(**data)


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
