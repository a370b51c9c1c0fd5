"""Neural network OS fingerprinting from classic signature databases.

The pipeline: parse first-generation fingerprint signatures, synthesize
Monte Carlo training corpora from their constraint grammar, reduce the
568-neuron observation encoding by correlation elimination and PCA,
train a hierarchy of tanh perceptrons (relevance, OS family, version),
and refine Windows verdicts from DCE-RPC endpoint dumps.
"""

from .datagen import (
    Dataset,
    GenerationError,
    PrevalenceTable,
    RELEVANT_FAMILIES,
    SampleLabel,
    generate_dataset,
    sample_observation,
)
from .dcerpc import (
    DumpParseError,
    WindowsLabelSpace,
    WindowsRefiner,
    WindowsVerdict,
    classify_windows,
    parse_endpoint_dump,
    report_windows,
    synthetic_windows_corpus,
    train_windows_net,
)
from .encoding import (
    EndpointMap,
    EndpointSchema,
    RpcProgram,
    TOTAL_NEURONS,
    build_endpoint_schema,
    encode_endpoint_map,
    encode_observation,
    feature_label,
    layout_table,
)
from .hierarchy import (
    ClassificationResult,
    EvaluationReport,
    HierarchyConfig,
    HierarchyError,
    HierarchyModel,
    Stage,
    classify,
    classify_batch,
    classify_vector,
    evaluate,
    report_classification,
    train_hierarchy,
)
from .neural import (
    Mlp,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    fitness_g,
    forward,
    init_mlp,
    train,
)
from .persistence import (
    CorruptContainerError,
    FormatVersionError,
    KindMismatchError,
    PersistenceError,
    load,
    save,
)
from .preprocess import (
    ReductionError,
    ReductionPipeline,
    fit_pipeline,
    reduction_report,
)
from .signatures import (
    Observation,
    ParseError,
    Signature,
    best_fit,
    match_score,
    parse_fingerprint_db,
    parse_observation,
    parse_observations,
)

__version__ = "0.1.0"
