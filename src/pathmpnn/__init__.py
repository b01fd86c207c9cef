"""Message passing neural networks over simple paths.

Core pieces: molecular graphs with node/edge features (molgraph), simple
path enumeration (paths), geometric and substructural path features
(geometry, chem), a small reverse-mode tensor engine (tensor), the path MPNN
regressor (model), the path GCN node classifier (citation), and training
utilities (training).
"""

from .chem import detect_alcohol, ring_membership, substructure_features
from .citation import (CitationGraph, PathGCNConfig, gcn_forward,
                       normalize_adjacency, path_gcn_forward)
from .geometry import geometry_features
from .model import ModelConfig, build_path_cache, forward, forward_base_mpnn, init_params
from .molgraph import FeaturizerConfig, GraphUnion, MoleculeRecord, build_graph
from .paths import enumerate_paths
from .tensor import Tensor, adam_step, backward, no_grad
from .training import (TrainSettings, rmse_loss, split_dataset,
                       train_node_classification, train_regression)

__version__ = "0.1.0"
