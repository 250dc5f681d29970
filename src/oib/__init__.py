"""Opportunistic feature compression for neural-network inference.

The package manufactures a jointly Gaussian regression sub-task inside a
trained classifier (orthonormally transformed inputs predicting the first
layer's pre-activations), solves the Gaussian information-bottleneck
problem for that sub-task in closed form, and re-expands the compressed
features so the remaining layers run unchanged.  Everything needed to
reproduce the experiments lives behind the ``oib`` command-line tool.
"""

from .complexity_model import (MacsBreakdown, fft_macs, linear_macs,
                               macs_table, network_macs, pipeline_macs,
                               saving_baseline, saving_percent)
from .config import (DatasetConfig, ExperimentConfig, RetrainSection,
                     SeedsConfig, TrainSection, apply_overrides,
                     config_from_dict, config_to_dict, load_config)
from .datasets import (LabeledImageSet, SyntheticGaussianSpec, load_idx,
                       render_digit, save_idx, subset, synth_gaussian,
                       synthetic_digits)
from .errors import (ConfigError, DataFormatError, DimensionError,
                     IdxCountMismatchError, IdxMagicError,
                     IdxTruncatedError, NumericalError, OibError)
from .gaussianizer import HzTestResult, RealDft2dPlan, henze_zirkler
from .gaussianizer import forward as dft_forward
from .gaussianizer import inverse as dft_inverse
from .gib_compressor import (Compressor, CompressorKind, GibSolution,
                             beta_for_size, cca_compressor,
                             compressor_at_beta, compressor_at_size, encode,
                             pca_basis, pca_compressor, solve_gib)
from .inference_net import (MlpModel, TrainConfig, accuracy, finetune_head,
                            forward, forward_from_layer, head_model,
                            init_mlp, train, train_head_on_z,
                            train_multi_rho_head)
from .info_metrics import (LoadingInvarianceReport,
                           ProjectionOptimalityReport, encoding_mi,
                           gaussian_entropy, gaussian_mi,
                           mi_loading_invariance_check,
                           random_projection_optimality_check)
from .pipeline import (EvalRecord, ExperimentResult, HzRecord,
                       RetrainRecord, run_experiment)
from .reexpander import (FitMethod, Reexpander, fit_lmmse, fit_ls,
                         mse_entropy_gap, reexpand)
from .serialization import (config_hash, load_compressor, load_model,
                            load_reexpander, save_compressor, save_model,
                            save_reexpander, validate_report)
from .tensor_stats import (CovariancePair, DataMatrix,
                           GeneralizedEigenResult, covariance_pair,
                           gib_eigensystem, logdet_psd, sample_covariance)

__version__ = "0.1.0"
