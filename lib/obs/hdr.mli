(** Single-writer log-linear (HDR-style) histograms for hot-path latency
    data.

    A histogram has one writer: the domain that records into it.  Each
    recording domain keeps its own histogram, and readers merge their
    {!snapshot}s.  {!record} computes the log-linear bucket index with
    integer arithmetic and bumps one plain [int]; a [Gc.minor_words] test
    pins it to zero minor words.

    Bucket boundaries are a pure function of the value — below 32 every
    value has its own bucket, above that each power-of-two range splits
    into 32 linear sub-buckets — so any bucket is at most ~3.1% wide
    relative to its value, and two histograms merge losslessly by summing
    bucket counts: {!merge} of per-domain snapshots reports exactly the
    percentiles a single histogram fed the union would.

    Queries go through an immutable {!snapshot}.  A snapshot may be taken
    on any domain; one taken while the writer records sees some recent
    state of the histogram. *)

type t

val create : unit -> t
(** An empty histogram: one [int] per bucket, ~1800 buckets, ~14 KiB. *)

val record : t -> int -> unit
(** Records one non-negative value (negatives clamp to 0, huge values to
    [2^60 - 1]).  Only the histogram's one writer may call it.  No
    allocation. *)

(** {2 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** A copy of the histogram's counts and bounds. *)

val merged : t array -> snapshot
(** The {!merge} of the histograms' snapshots, made in one copy. *)

val merge : snapshot -> snapshot -> snapshot
(** Lossless: bucket counts add exactly. *)

val count : snapshot -> int

val min_value : snapshot -> int
(** Exact recorded minimum (0 when empty). *)

val max_value : snapshot -> int
(** Exact recorded maximum (0 when empty). *)

val sum_approx : snapshot -> float
(** Sum reconstructed from bucket midpoints — deterministic given the
    bucket counts, within the ~3.1% bucket error of the true sum. *)

val mean : snapshot -> float
(** [nan] when empty. *)

val percentile : snapshot -> float -> float
(** [percentile s p] for [p] in [0..100]: walks the cumulative bucket
    counts and returns the midpoint of the bucket holding rank
    [p/100 * count], clamped into the recorded [min..max].  [p <= 0]
    returns the exact recorded minimum, [p >= 100] the exact maximum;
    [nan] when empty. *)

(** {2 Bucket geometry} (exposed for tests and table renderers) *)

val num_buckets : int

val bucket_index : int -> int

val bucket_low : int -> int

val bucket_high : int -> int

val bucket_count : snapshot -> int -> int
