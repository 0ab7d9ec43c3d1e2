"""Residential load-profile clustering with a validation-index lab.

The package turns 15-minute smart-meter readings into unit-norm median
daily profiles, reduces them with PCA (elbow-chosen dimension), clusters
them with fuzzy c-means (partition-coefficient-chosen k), scores the
result with five validation indices, and probes how those indices react
to controlled perturbations: outlier toggling, density injection, and
diameter shrinkage. Everything is seeded and bit-reproducible.
"""

from .cvi import (
    CviReport,
    HIGHER_IS_BETTER,
    INDEX_NAMES,
    PartitionGeometry,
    evaluate_geometry,
    evaluate_labels,
    partition_geometry,
)
from .fcm import (
    ClusterModel,
    FcmConfig,
    fit_fcm,
    fuzzy_partition_coefficient,
    select_cluster_count,
)
from .pca import (
    DegenerateDataError,
    NoElbowError,
    PcaModel,
    cumulative_explained_variance,
    fit_pca,
    project,
    select_dimensions_elbow,
)
from .perturb import (
    ExperimentReport,
    ExperimentRow,
    ExperimentSkipped,
    PerturbConfig,
    RejectionBudgetError,
    density_experiment,
    diameter_experiment,
    experiment_to_csv,
    find_singleton_clusters,
    inject_density,
    judge_hypothesis,
    outlier_experiment,
    shrink_clusters,
)
from .pipeline import (
    RunConfig,
    RunManifest,
    emit_report,
    load_run_config,
    run_experiment,
    run_full,
)
from .profiles import (
    CsvFormatError,
    MissingSlotError,
    ProfileMatrix,
    SynthSpec,
    ZeroProfileError,
    generate_synthetic,
    ingest_readings,
    l2_normalize,
    read_profiles_csv,
    synthetic_templates,
    write_profiles_csv,
)
from .rng import derive_stream
from .version import __version__
