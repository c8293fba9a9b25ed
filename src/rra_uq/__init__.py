"""Uncertainty estimation for small classifiers via randomized ReLU slopes.

The package trains dense/conv classifiers whose activation functions draw a
fresh negative-branch slope every forward pass, runs multi-pass Monte-Carlo
inference, and evaluates calibration and prediction diversity on clean and
corrupted data.  Everything is driven by counter-based splittable random
streams, so every artifact is a pure function of (config, master seed).
"""

from .activations import (ActivationKind, DropoutSpec, SampledMask, activate,
                          activate_backward, deterministic_mask, dropout_forward,
                          droprelu, relu, rrelu, sample_mask)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (CORRUPTION_KINDS, Dataset, NormStats, corrupt, gen_blobs,
                   gen_two_moons, load_idx, normalize, severity_params, take,
                   write_idx)
from .errors import (ConfigError, ContractError, DataFormatError, DimensionError,
                     ParameterError, RraError)
from .experiments import (ARCHITECTURES, ExperimentConfig, MethodSpec, Report,
                          build_architecture, config_from_dict, emit_report,
                          load_config, method_spec, position_analysis, q_sweep,
                          run_experiment, run_suite)
from .inference import (PredictiveSet, PredictionSummary, aggregate,
                        ensemble_predict, entropy_nats, load_predictive_set,
                        mc_predict, predictive_set_to_csv, save_predictive_set,
                        single_predict)
from .metrics import (DiversityReport, ReliabilityBins, accuracy, disagreement,
                      diversity_matrix, ece, jsd_pair, reliability_bins,
                      shift_sweep)
from .network import (Activation, Conv2d, Dense, Dropout, Flatten, NetworkGraph,
                      Trace, activation, backward, build_members, build_network,
                      conv2d, dense, dropout_layer, flatten, forward, grad_check,
                      softmax, softmax_cross_entropy)
from .rng import RngStream
from .training import (DEFAULT_SCHEDULE, OptimizerState, TrainingResult,
                       learning_rate_at, sgd_step, train)
from .variance import (analytic_dropout_var, analytic_droprelu_var_floor,
                       dominance_scan, empirical_epsilon, empirical_floor_term,
                       empirical_layer_var, sample_variance_with_se, scan_to_csv)

__version__ = "0.1.0"
