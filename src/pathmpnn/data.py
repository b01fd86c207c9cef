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


def _text_lines(path):
    """A UTF-8 file's lines, split at "\\n" only, from one read and decode. A
    byte that is not UTF-8 fails naming its line, after the lines before it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        yield from raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        start = raw.rfind(b"\n", 0, err.start) + 1      # where the bad byte's line starts
        yield from raw[:start].decode("utf-8").split("\n")[:-1]
        lineno = raw.count(b"\n", 0, start) + 1
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text (byte {raw[err.start]:#04x} "
                              f"at offset {err.start - start})") from None


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


_RECORD_KEYS = frozenset({"id", "elements", "bonds", "targets", "coords"})


def record_from_dict(data: dict, where: str = "") -> MoleculeRecord:
    """A molecule from one line's object. Nothing is coerced: id and elements
    are strings, bond atom indices integers, targets and coords finite. A
    key that is none of _RECORD_KEYS is refused, so a misspelt optional key
    cannot drop its values silently."""
    if not _RECORD_KEYS.issuperset(data):
        raise DataFormatError(f"{where}: unknown record keys {sorted(set(data) - _RECORD_KEYS)}")
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
    the file. A line that is not UTF-8 or is malformed, a repeated id, or a
    molecule that has coords when the first has none (or none when it has)
    or another number of targets, or an element the header's vocabulary
    lacks (heavy-atom mode drops hydrogens), fails naming file and line."""
    header, records, id_lines, known = {}, [], {}, None
    for lineno, line in enumerate(_text_lines(path), start=1):
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
            first = records[0] if records else record
            if (record.coords is None) != (first.coords is None):
                has = "has no" if record.coords is None else "has"
                raise DataFormatError(f"{where}: molecule {record.id!r} {has} coords, unlike "
                                      f"the first molecule (line {id_lines[first.id]})")
            if len(record.targets) != len(first.targets):
                raise DataFormatError(
                    f"{where}: molecule {record.id!r} has {len(record.targets)} targets, unlike "
                    f"the first molecule (line {id_lines[first.id]}), which has "
                    f"{len(first.targets)}")
            if known is not None and not known.issuperset(record.elements):
                symbol = next(el for el in record.elements if el not in known)
                raise DataFormatError(
                    f"{where}: molecule {record.id!r}: unknown element symbol {symbol!r} "
                    f"(vocabulary: {', '.join(header['element_vocab'])})")
            records.append(record)
        elif lineno == 1:
            _check_header(data, where)
            header = data
            if explicit_hydrogens is None:
                explicit_hydrogens = header.get("explicit_hydrogens", False)
            if "element_vocab" in header:
                known = set(header["element_vocab"]) | (set() if explicit_hydrogens else {"H"})
        else:
            raise DataFormatError(f"{where}: missing field 'id'")
    vocab = (tuple(header["element_vocab"]) if "element_vocab" in header
             else vocab_from_records(records))
    return MoleculeDataset(records=records,
                           featurizer=FeaturizerConfig(vocab, bool(explicit_hydrogens)))


def write_molecule_file(path, records, element_vocab=None,
                        explicit_hydrogens=False):
    vocab = vocab_from_records(records) if element_vocab is None else element_vocab
    with open(path, "w") as fh:
        fh.write(json.dumps({"explicit_hydrogens": explicit_hydrogens,
                             "element_vocab": list(vocab)}) + "\n")
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")


# -- citation files ----------------------------------------------------------

def _raise_first_bad_content_line(path):
    """Raise the error of a content file's first bad line: too few tokens or
    features, a repeated id, or a value that float() or np.loadtxt refuses."""
    seen, n_features = set(), None
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not (tokens := line.split()):
            continue
        where = f"{path}:{lineno}"
        if len(tokens) < 3:
            raise DataFormatError(f"{where}: expected id, features, label")
        doc_id, *feat, label = tokens
        n_features = n_features or len(feat)
        if len(feat) != n_features:
            raise DataFormatError(f"{where}: {len(feat)} features, expected {n_features}")
        if doc_id in seen:
            raise DataFormatError(f"{where}: duplicate id {doc_id!r}")
        seen.add(doc_id)
        try:
            [float(x) for x in feat]
            np.loadtxt([" ".join(feat)], comments=None)
        except ValueError as err:
            raise DataFormatError(f"{where}: feature values must be numbers ({err})") from None


# rows are turned into bytes this many bytes at a time: one array of the
# whole file's bytes raised the citation benchmark's peak RSS by 0.3-0.8 MB
# over the np.loadtxt parse's, blocks of this size by -0.1 to +0.2 MB
_DIGIT_BLOCK_BYTES = 2 ** 19


def _one_digit_features(feats):
    """The (rows, F) float64 features of rows that are F one-digit ASCII
    tokens, one space or tab apart, read from their bytes; None for a row
    spelled any other way. Digit d reads as float(d), as np.loadtxt reads it."""
    width = len(feats[0])
    if any(len(row) != width for row in feats) or not all(row.isascii() for row in feats):
        return None
    digits = np.empty((len(feats), (width + 1) // 2), np.uint8)
    block = max(1, _DIGIT_BLOCK_BYTES // width)
    for start in range(0, len(feats), block):
        chunk = feats[start:start + block]
        raw = np.array(chunk, dtype=f"S{width}").view(np.uint8).reshape(len(chunk), width)
        gaps = raw[:, 1::2]                 # a row ends in a token: an even width fails
        if not ((gaps == 32) | (gaps == 9)).all():
            return None
        # uint8: a byte below "0" wraps past 9
        np.subtract(raw[:, ::2], 48, out=digits[start:start + block])
    if (digits > 9).any():
        return None
    return digits.astype(np.float64)


def parse_citation_files(content_path, cites_path, train_per_class: int = 20,
                         val_size: int = 500, test_size: int = 1000) -> cit.CitationGraph:
    """Read the classic content/cites pair. Document ids become dense
    indices by first appearance; citations naming unknown ids are dropped
    with a counted warning. When every row's features are one ASCII digit
    per token, one space or tab apart (Cora's 0/1 words), they are read from
    their bytes; any other spelling goes through one np.loadtxt call, with
    the same values and errors: float syntax, without underscores or
    non-ASCII digits."""
    rows = []
    try:
        for lineno, line in enumerate(_text_lines(content_path), start=1):
            if head := line.split(None, 1):
                doc_id, rest = head                       # fails on a line of one token
                feat, label = rest.rsplit(None, 1)        # and of two
                # np.loadtxt would end a line at a \r, which split() reads as a space
                rows.append((lineno, doc_id, feat.replace("\r", " "), label))
        row_lines, ids, feats, label_names = zip(*rows) if rows else ((),) * 4
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids):
            raise DataFormatError("repeated id")      # the scan below names its line
        digits = _one_digit_features(feats) if rows else np.zeros(0)
        features = np.loadtxt(feats, comments=None, ndmin=2) if digits is None else digits
    except ValueError:                   # a DataFormatError too: not UTF-8, a repeated id
        _raise_first_bad_content_line(content_path)
        raise
    # float syntax reads nan and inf; one-digit rows hold neither
    bad = np.flatnonzero(~np.isfinite(features).all(axis=-1)) if digits is None else ()
    if len(bad):
        value = next(v for v in features[bad[0]] if not np.isfinite(v))
        raise DataFormatError(f"{content_path}:{row_lines[bad[0]]}: feature values must be "
                              f"finite numbers, got {value}")
    label_index: dict[str, int] = {}
    labels = [label_index.setdefault(label, len(label_index)) for label in label_names]

    edges = set()
    dropped = 0
    for lineno, line in enumerate(_text_lines(cites_path), start=1):
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
    """The content/cites pair parse_citation_files reads. An integer feature
    value is written as one (1, not 1.0), any other as its repr, which reads
    back bit for bit."""
    ids = graph.ids or tuple(f"doc{v}" for v in range(graph.n))
    with open(content_path, "w") as fh:
        for v, row in enumerate(graph.features):   # one row's Python floats at a time
            feats = " ".join(str(int(x)) if float(x).is_integer() else repr(float(x))
                             for x in row.tolist())
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
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text (byte {raw[err.start]:#04x} "
                          f"at offset {err.start})") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err.msg})") from None
    try:
        return run_config_from_dict(data)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
