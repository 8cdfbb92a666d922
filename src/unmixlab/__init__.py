"""Autoencoder-based hyperspectral unmixing with a training-stability bench.

Submodules:
  lmm      linear mixing model types, synthetic scenes, bundle file I/O
  nn       autoencoder layers, initialization schemes, Adam, checkpoints
  metrics  losses with gradients and permutation-matched quality metrics
  harness  seeded single runs and the N x k experiment grid
  stats    Levene / Kruskal-Wallis / Conover-Iman pipeline, retry planner
  cli      command-line entry points
"""

from .lmm import (
    GroundTruth,
    HsiBundle,
    NoiseSpec,
    bundle_from_csv,
    generate_endmembers,
    load_bundle,
    min_max_scale,
    sample_abundances,
    save_bundle,
    synthesize,
)
from .metrics import (
    ErrorSummary,
    angle_matrix,
    match_endmembers,
    mse_loss,
    sad_loss,
    spectral_angle,
    summarize_errors,
    unmixing_errors,
)
from .nn import (
    AdamState,
    Network,
    backward,
    build_network,
    forward,
    init_weights,
    initialize_network,
    load_checkpoint,
    save_checkpoint,
)
from .harness import (
    ExperimentConfig,
    GradientTrace,
    RunRecord,
    extract_abundances,
    extract_endmembers,
    grid_seeds,
    read_records,
    run_experiment,
    train_once,
    write_records,
)
from .stats import (
    GroupedScores,
    StatReport,
    analyze_grouped,
    chi2_sf,
    conover_iman,
    f_sf,
    group_scores,
    kruskal_wallis,
    levene,
    midranks,
    ph_ratio,
    required_trials,
    success_prob,
)

__version__ = "0.1.0"
