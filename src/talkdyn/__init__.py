"""Activity peaks and discussion-growth metrics for wiki-style articles."""

from .discussion import (
    DeltaH,
    DiscussionTree,
    HIndexCounter,
    HTrace,
    InsufficientGrowthError,
    MaturityStatus,
    NoDatedCommentsError,
    build_forest,
    build_tree,
    delta_h,
    h_index,
    h_trace,
    maturity,
    rank_by_speed,
)
from .ingest import (
    COMMENT,
    EDIT,
    ActivitySeries,
    CommentEvent,
    Diagnostics,
    EditEvent,
    IngestError,
    build_series,
    load_events,
)
from .peakstats import (
    Histogram,
    OverlapReport,
    PowerLawFit,
    anniversaries,
    fit_power_law,
    integer_histogram,
    log_binned_histogram,
    overlap,
    pearson,
    peaks_per_article,
    run_lengths,
)
from .talkparser import RawTalkPage, SignatureMatch, extract_signature, split_comments, to_events
from .timeseries import (
    OutOfOrderError,
    PeakParams,
    PeakRun,
    StreamState,
    detect_peaks,
    detect_peaks_trailing,
    inter_peak_intervals,
    sliding_median,
    stream_step,
)

__version__ = "0.1.0"
