"""zestkit: signature-based model fingerprinting over query access, surrogate
selection from a signature portfolio, PGD adversarial crafting, and transfer
evaluation, with exact query accounting throughout."""

from .attack import (AdversarialBatch, AttackConfig, TransferResult, batch_summary_csv,
                     load_batch, pgd, pgd_many, quantize, save_batch, transfer_eval)
from .errors import (ComparabilityError, ConfigError, DomainError, IntegrityError,
                     NumericalError, ProtocolError, ShapeError, TransportError,
                     UndefinedCorrelationError, UndefinedDistanceError, ZestError)
from .experiment import (CampaignResult, CorrelationRecord, bundled_campaign_config,
                         load_campaign_config, run_campaign, select_attack_points)
from .fixtures import (ReferenceFixture, ReplayReport, StabilityReport,
                       compare_rank_stability, load_reference_fixture, model_family,
                       replay_reference)
from .lime import (LimeConfig, PerturbationPlan, PointModel, SegmentGrid, Signature,
                   compute_signature, fit_point_model, load_plan, load_signature,
                   make_plan, mask_kernel_weights, save_plan, save_signature, sign_many,
                   signature_summary_csv)
from .nn import (Dataset, MlpModel, TrainConfig, blob_centers, cross_entropy, forward,
                 input_gradient, input_gradient_batch, load_dataset, load_model,
                 sample_blobs, save_dataset, save_model, softmax, train, train_many)
from .oracle import (LocalOracle, ModelServer, QueryLedger, QueryOracle, RemoteEndpoint,
                     RemoteOracle, local_oracle, serve)
from .util import canonical_json, config_hash, derived_seed, pearson, spearman
from .zest import (DistanceMetric, DistanceReport, SignatureStore, rank_candidates,
                   rank_signatures, select_surrogate, vector_distance, zest_distance)

__version__ = "0.1.0"
