(** Tight admissible segment bounds for custom-design pruning.

    A custom spec is a pipelined head (one layer per engine) followed
    by single-CE tail segments, all coarse-grained pipelined, so its
    exact interval is the slowest block and its exact latency the sum
    of blocks.  This module derives per-segment lower bounds on those
    block times straight from the {!Cnn.Table} prefix aggregates — O(1)
    per query after a per-(table, board, CE count) precomputation — by
    combining:

    - a {e quantization floor}: each layer needs at least
      [Builder.Parallelism_select.cycle_floor ~pes] cycles on any
      engine with at most [pes] PEs, evaluated at the PE cap
      [dsps - ces + 1] (segments) or the layer's own proportional share
      ceiling [Builder.Pe_allocation.share_upper_bound] (head engines,
      whose builder workload is exactly one layer);
    - an {e allocation floor}: a segment with [m] MACs runs on an
      engine holding at most [min (cap, 2 + spare * m / total)] PEs
      (integer division — the builder's own share ceiling, nondecreasing
      in [m]), so it needs at least [m] over that many cycles;
    - the {e mediant floor} [total_macs / dsps] on the whole interval
      (work conservation over all engines);
    - the {e memory floor}: weights plus network input and output
      cross the off-chip port at least once per image.

    {b Admissibility contract.}  For every design the builder produces
    under the default build options (proportional PE allocation; any
    parallelism or buffer mode), each query below is at most (cycles /
    latency) or at least (throughput) the exact evaluated value, so
    pruning on these bounds never changes the exhaustive search's
    winner.  The [`Balanced] PE-allocation ablation can exceed
    an engine's proportional share; bounds are not admissible for it.
    The QCheck2 suite in [test/test_bounds.ml] exercises every clause
    of this contract over random model/board/spec draws. *)

type t
(** Bound context for one (table, board) pair.  Per-CE-count floors are
    derived lazily and memoised; the memo is mutex-protected, so a
    context may be shared across domains (warm the CE counts you need
    before forking to keep the parallel phase read-only). *)

type ctx
(** Per-CE-count floor tables (PE cap, quantization prefix sums, head
    share ceilings) — the unit of {!segment_ii_floor} and friends. *)

val create : Cnn.Table.t -> Platform.Board.t -> t
(** O(1); the per-CE-count work happens on first {!context} use: one
    quantization floor per (PE level, distinct layer shape) and one per
    layer at its head share ceiling, O(sqrt extents) each. *)

val context : t -> ces:int -> ctx
(** The floor tables for designs with exactly [ces] engines.  Building
    them runs in a [dse.bounds_context] span.
    @raise Invalid_argument if [ces < 2]. *)

val table : t -> Cnn.Table.t
val clock_hz : t -> float

val mem_floor_s : t -> float
(** Off-chip traffic floor in seconds per image: (weights + network
    input + network output) bytes over bandwidth.  Lower-bounds the
    exact [Mccm.Evaluate] [ii_memory_s] of every design. *)

val global_ii_cycles : t -> float
(** [total_macs / dsps] — no schedule beats work conservation. *)

(** {1 O(1) per-segment floors}

    All in cycles.  Each is a lower bound on the corresponding exact
    block quantity of any design containing that block (see the
    admissibility contract above). *)

val head_ii_floor : ctx -> f:int -> float
(** Lower bound on the interval (bottleneck-engine busy time) of the
    pipelined head over layers [0, f): the largest per-layer floor at
    each layer's share ceiling, and the head mean over its summed PE
    ceiling.  Nondecreasing in [f]. *)

val segment_ii_floor : ctx -> first:int -> last:int -> float
(** Lower bound on a single-CE tail segment's latency (= its interval):
    summed quantization floors at the smallest grid level covering the
    segment's share ceiling, and the allocation floor of its MAC total.
    Always at least {!segment_ii_floor_monotone}.  Monotone under
    extension while the share level is unchanged; a level jump may
    relax the quantization term by up to one grid step (~10%), never
    below the monotone core. *)

val segment_ii_floor_monotone : ctx -> first:int -> last:int -> float
(** The provably monotone core of {!segment_ii_floor}: cap-level
    quantization sum plus the allocation floor.  Growing [last] or
    shrinking [first] never lowers it (the quantization term gains
    nonnegative summands; the allocation floor is nondecreasing in the
    MAC total). *)

(** {1 Whole-spec bounds} *)

val compute_ii_floor_cycles : t -> Arch.Custom.spec -> float
(** The compute side of a whole spec's interval floor, in cycles: max
    of head/segment floors and {!global_ii_cycles}.  Divided by
    {!clock_hz}, lower-bounds the exact [Mccm.Evaluate] [ii_compute_s]
    — the bound-vs-exact hook the property suite checks. *)

val throughput_upper_bound : t -> Arch.Custom.spec -> float
(** Admissible (never below any achievable value) throughput bound for
    a complete spec, images/s. *)

val latency_lower_bound : t -> Arch.Custom.spec -> float
(** Admissible (never above any achievable value) latency bound for a
    complete spec, seconds. *)

(** {1 Flat-row bounds}

    The same whole-spec bounds evaluated straight off a
    {!Space.Flat.buf} row: identical floors in identical accumulation
    order, so for a row encoding spec [p] under the ctx for [p]'s CE
    count they return bit-for-bit the values of
    {!throughput_upper_bound} / {!latency_lower_bound} / {!compute_ii_floor_cycles}
    — but with no per-candidate allocation and the [ctx] lookup
    hoisted out of the scan loop (pass [context t ~ces] once). *)

val compute_ii_floor_cycles_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float

val throughput_upper_bound_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float

val latency_lower_bound_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float
